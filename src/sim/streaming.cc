#include "sim/streaming.h"

#include <algorithm>
#include <cmath>

namespace hoiho::sim {

namespace {

// SplitMix64 finalizer: decorrelates (seed, index) into a per-suffix seed so
// each suffix's rng stream is independent of every other's — the property
// that makes the emitted stream invariant under batch-size changes.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Suffix-name material (same flavour as the batch generator's, but the name
// embeds the suffix index in base36 so names are unique and derivable from
// (seed, k) alone — no cross-suffix uniqueness set).
const char* const kSyllables[] = {
    "tel", "net", "ver", "lum", "glo", "pac", "atla", "nor", "sur", "col",
    "era", "via", "zen", "arc", "omni", "uni", "den", "fib", "lin", "kor",
    "mira", "sol", "vex", "qui", "bel", "tra", "san", "pol", "gri", "hex",
};
const char* const kTlds[] = {"net", "net", "net", "com", "com", "org", "eu", "io", "de", "jp"};

std::string base36(std::size_t n) {
  static const char digits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out.insert(out.begin(), digits[n % 36]);
    n /= 36;
  } while (n != 0);
  return out;
}

std::string make_streaming_suffix(std::size_t k, util::Rng& rng) {
  std::string name = kSyllables[rng.next_below(std::size(kSyllables))];
  name += kSyllables[rng.next_below(std::size(kSyllables))];
  name += base36(k);
  name += ".";
  name += kTlds[rng.next_below(std::size(kTlds))];
  return name;
}

}  // namespace

StreamingWorld::StreamingWorld(const geo::GeoDictionary& dict, StreamingWorldConfig config)
    : dict_(dict), config_(std::move(config)) {
  config_.traits.spatial_footprint = true;
  pools_ = build_location_pools(dict_);
  vps_ = make_vps(dict_, config_.vp_count);

  // Zipf router plan: suffix k draws ~1/(k+1)^s of the hostname mass,
  // clamped per suffix; the expected hostnames-per-router factor converts
  // mass to router counts. Clamping the head loses mass, so one rebalance
  // pass spreads the remainder over unclamped suffixes.
  const std::size_t n = std::max<std::size_t>(1, config_.suffixes);
  router_plan_.assign(n, 0);
  std::vector<double> weight(n);
  for (std::size_t k = 0; k < n; ++k)
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), config_.zipf_s);
  // ~2 interfaces per router at the configured hostname rate.
  const double hosts_per_router = std::max(0.1, 2.0 * config_.traits.hostname_rate);
  const auto plan_pass = [&](double hostname_mass, bool clamped_only_unset) {
    double w_avail = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (!clamped_only_unset || router_plan_[k] == 0) w_avail += weight[k];
    if (w_avail <= 0) return;
    for (std::size_t k = 0; k < n; ++k) {
      if (clamped_only_unset && router_plan_[k] != 0) continue;
      const double hosts = hostname_mass * weight[k] / w_avail;
      const double capped = std::min(hosts, static_cast<double>(config_.max_hostnames_per_suffix));
      router_plan_[k] = static_cast<std::uint32_t>(std::max(
          static_cast<double>(config_.min_routers_per_suffix), capped / hosts_per_router));
    }
  };
  plan_pass(static_cast<double>(config_.target_hostnames), false);
  // Rebalance: mass lost to the per-suffix clamp gets spread over the tail.
  double planned_hosts = 0;
  for (std::size_t k = 0; k < n; ++k)
    planned_hosts += static_cast<double>(router_plan_[k]) * hosts_per_router;
  const double missing = static_cast<double>(config_.target_hostnames) - planned_hosts;
  if (missing > hosts_per_router) {
    std::vector<std::uint32_t> base = router_plan_;
    for (std::size_t k = 0; k < n; ++k)
      if (static_cast<double>(base[k]) * hosts_per_router + 1 <
          static_cast<double>(config_.max_hostnames_per_suffix))
        router_plan_[k] = 0;  // mark as redistribution target
    plan_pass(missing, true);
    for (std::size_t k = 0; k < n; ++k) {
      if (base[k] != 0 && router_plan_[k] != base[k]) {
        const std::uint64_t sum = base[k] + router_plan_[k];
        const double cap = static_cast<double>(config_.max_hostnames_per_suffix) / hosts_per_router;
        router_plan_[k] = static_cast<std::uint32_t>(
            std::min(static_cast<double>(sum), cap));
      }
      if (router_plan_[k] == 0) router_plan_[k] = base[k];
    }
  }
}

void StreamingWorld::reset() {
  next_suffix_ = 0;
  report_ = io::LoadReport{};
}

bool StreamingWorld::is_churned(std::size_t k) const {
  if (config_.churn_frac <= 0) return false;
  if (config_.churn_frac >= 1) return true;
  // mix() gives 64 uniform bits per (churn_seed, k); take the top 53 as a
  // uniform double in [0, 1) so the selection matches churn_frac in
  // expectation and is stable across batch groupings.
  const double u = static_cast<double>(mix(config_.churn_seed ^ 0xc0ffee, k) >> 11) *
                   0x1.0p-53;
  return u < config_.churn_frac;
}

std::vector<std::size_t> StreamingWorld::churned_suffixes() const {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < config_.suffixes; ++k)
    if (is_churned(k)) out.push_back(k);
  return out;
}

std::string StreamingWorld::suffix_name(std::size_t k) const {
  util::Rng rng(mix(config_.seed, k));
  return make_streaming_suffix(k, rng);
}

std::vector<topo::HostnameRef> StreamingWorld::render_suffix(std::size_t k,
                                                             io::SuffixBatch& batch,
                                                             topo::RouterId* first_router) {
  util::Rng rng(mix(config_.seed, k));
  // The name is drawn before any churn reseed: a churned operator keeps its
  // suffix and turns over everything behind it.
  std::string name = make_streaming_suffix(k, rng);
  if (is_churned(k)) rng = util::Rng(mix(mix(config_.seed, config_.churn_seed | 1), k));
  WorldConfig traits = config_.traits;
  const SampledOperator op =
      sample_operator(dict_, pools_, traits, std::move(name), rng, router_plan_[k]);

  // Per-suffix address base: unique within a suffix, stable across batch
  // groupings. (Cross-suffix textual collisions are possible in the 24-bit
  // IPv4 rendering and harmless — addresses are decoration.)
  std::size_t addr_counter = (k + 1) * 16384;
  std::vector<HostnameTruth> truths;  // discarded: scale worlds are unscored
  const topo::RouterId first =
      render_operator(op.spec, dict_, traits.ipv6, op.hostname_rate, op.stale_rate, addr_counter,
                      rng, batch.topology, truths);
  *first_router = first;

  std::vector<topo::HostnameRef> refs;
  for (topo::RouterId r = first; r < batch.topology.size(); ++r) {
    for (const topo::Interface& ifc : batch.topology.router(r).interfaces) {
      ++report_.lines;
      if (!ifc.hostname) {
        // Unnamed interfaces are part of the world model, not an ingest
        // failure; only rendered-but-unparseable names would be skips.
        continue;
      }
      ++report_.records;
      refs.push_back(topo::HostnameRef{r, &*ifc.hostname});
    }
  }
  return refs;
}

std::optional<io::SuffixBatch> StreamingWorld::next_batch() {
  if (next_suffix_ >= config_.suffixes) return std::nullopt;

  io::SuffixBatch batch;
  batch.first_suffix_index = next_suffix_;

  // Phase 1: render whole suffixes until the hostname budget is met.
  struct Pending {
    std::size_t suffix_index;
    topo::RouterId first_router;
    topo::RouterId end_router;  // one past this suffix's last router
    std::vector<topo::HostnameRef> refs;
    std::string suffix;
  };
  std::vector<Pending> pending;
  std::size_t batch_hostnames = 0;
  while (next_suffix_ < config_.suffixes &&
         (pending.empty() || batch_hostnames < config_.batch_hostname_budget)) {
    const std::size_t k = next_suffix_++;
    Pending p;
    p.suffix_index = k;
    p.refs = render_suffix(k, batch, &p.first_router);
    p.end_router = static_cast<topo::RouterId>(batch.topology.size());
    if (p.refs.empty()) continue;  // operator rendered no usable hostnames
    p.suffix = std::string(p.refs.front().hostname->suffix());
    batch_hostnames += p.refs.size();
    pending.push_back(std::move(p));
  }

  // Phase 2: probe RTTs. The matrix spans the whole batch topology; each
  // suffix's routers are probed from a per-suffix rng so samples don't
  // depend on batch grouping.
  batch.pings = measure::Measurements(vps_, batch.topology.size());
  for (const Pending& p : pending) {
    util::Rng ping_rng(mix(config_.seed ^ config_.ping.seed, p.suffix_index));
    probe_pings_range(dict_, batch.topology, p.first_router, p.end_router, config_.ping,
                      ping_rng, batch.pings);
  }

  // Phase 3: assemble groups in stream order.
  batch.groups.reserve(pending.size());
  for (Pending& p : pending)
    batch.groups.push_back(topo::SuffixGroup{std::move(p.suffix), std::move(p.refs)});

  if (batch.groups.empty()) return next_batch();  // every suffix was empty; advance
  return batch;
}

io::SuffixBatch StreamingWorld::render_batch(const std::vector<std::size_t>& ks) {
  io::SuffixBatch batch;
  batch.first_suffix_index = ks.empty() ? 0 : ks.front();

  struct Pending {
    std::size_t suffix_index;
    topo::RouterId first_router;
    topo::RouterId end_router;
    std::vector<topo::HostnameRef> refs;
    std::string suffix;
  };
  std::vector<Pending> pending;
  for (const std::size_t k : ks) {
    Pending p;
    p.suffix_index = k;
    p.refs = render_suffix(k, batch, &p.first_router);
    p.end_router = static_cast<topo::RouterId>(batch.topology.size());
    if (p.refs.empty()) continue;  // caller maps the omission to a removal
    p.suffix = std::string(p.refs.front().hostname->suffix());
    pending.push_back(std::move(p));
  }

  batch.pings = measure::Measurements(vps_, batch.topology.size());
  for (const Pending& p : pending) {
    util::Rng ping_rng(mix(config_.seed ^ config_.ping.seed, p.suffix_index));
    probe_pings_range(dict_, batch.topology, p.first_router, p.end_router, config_.ping,
                      ping_rng, batch.pings);
  }

  batch.groups.reserve(pending.size());
  for (Pending& p : pending)
    batch.groups.push_back(topo::SuffixGroup{std::move(p.suffix), std::move(p.refs)});
  return batch;
}

}  // namespace hoiho::sim
