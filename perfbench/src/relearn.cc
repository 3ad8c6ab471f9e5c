// relearn_delta: small, frequent, latency-bound writes into a live store.
// Set-up learns a fixed base L world, captures its PriorRun, and loads the
// model into a serve::ModelStore with a canary file. It also pre-renders
// churn feeds that partition the suffixes into 5% groups (drawn from the
// seed), plus the base rendering of the same suffixes. Each timed cycle is
// churn feed -> Hoiho::run_delta ->
// core::serialize_model_delta -> ModelStore::apply_delta on the serving
// generation, ping-ponging base -> churn_k -> base.
//
// Correctness: every apply must publish; after a forward cycle the store
// must re-serialize to the learner's merged result, and after every return
// cycle it must re-serialize byte for byte to the base model.
#include <algorithm>
#include <functional>
#include <random>
#include <unordered_set>

#include "core/ncb.h"
#include "geo/dictionary.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr std::size_t kFeedsPerRound = 20;  // 5% of the suffixes each
constexpr std::size_t kCanarySuffixes = 40;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kCanaryQueries = 32;
constexpr std::uint64_t kBaseWorldSeed = 99;

// A changed batch plus removals for `ks` (suffixes that render no usable
// hostname have left the world).
core::WorldDelta world_delta(sim::StreamingWorld& world, const std::vector<std::size_t>& ks) {
  core::WorldDelta wd;
  wd.changed = world.render_batch(ks);
  std::unordered_set<std::string_view> present;
  for (const hoiho::topo::SuffixGroup& g : wd.changed.groups) present.insert(g.suffix);
  for (const std::size_t k : ks) {
    std::string name = world.suffix_name(k);
    if (present.find(name) == present.end()) wd.removed.push_back(std::move(name));
  }
  return wd;
}

// Mean of the slowest tenth. Cycles cluster by whether a feed churns a
// Zipf-head suffix, so a single percentile can sit in the gap between the
// clusters; the tail mean moves smoothly.
double tail_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(), std::greater<>());
  const std::size_t n = std::max<std::size_t>(1, v.size() / 10);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

}  // namespace

bool make_delta_rig(const sim::StreamingWorldConfig& base, std::uint64_t churn_seed,
                    std::size_t feeds, const core::Hoiho& hoiho, const std::string& workdir,
                    DeltaRig* rig, std::string* error) {
  const hoiho::geo::GeoDictionary& dict = hoiho::geo::builtin_dictionary();
  DeltaRig& s = *rig;
  s = DeltaRig{};
  sim::StreamingWorld base_world(dict, base);
  core::HoihoResult learned = hoiho.run_stream(base_world);
  s.vps = base_world.vps();
  std::vector<core::StoredConvention> stored = model_conventions(learned);
  s.base_bytes = model_text(stored);

  const std::string model_path = workdir + "/base.ncb";
  if (!core::save_model_to_file(model_path, stored, dict, error)) return false;
  auto store = std::make_unique<hoiho::serve::ModelStore>(dict, model_path);
  if (const auto err = store->reload()) {
    *error = "load base model: " + *err;
    return false;
  }

  // Every suffix is churned exactly once per round of kFeedsPerRound
  // feeds, so the slow cycles (those that churn a Zipf-head suffix) are the
  // same share on every seed. The canary pins answers of the held-back
  // suffixes, which every generation of the ping-pong serves unchanged.
  sim::StreamingWorldConfig churned = base;
  churned.churn_frac = 1.0;
  churned.churn_seed = churn_seed;
  sim::StreamingWorld churned_world(dict, churned);
  std::vector<std::size_t> order(base_world.suffix_count());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(churn_seed));
  const std::size_t held = std::min<std::size_t>(kCanarySuffixes, order.size() / 4);
  const std::vector<std::size_t> untouched(order.begin(), order.begin() + held);
  const std::size_t per_feed = std::max<std::size_t>(1, (order.size() - held) / kFeedsPerRound);
  feeds = std::min(feeds, kFeedsPerRound);
  for (std::size_t c = 0; c < feeds && held + c * per_feed < order.size(); ++c) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(held + c * per_feed);
    const auto last =
        c + 1 == kFeedsPerRound ? order.end() : first + static_cast<std::ptrdiff_t>(per_feed);
    const std::vector<std::size_t> ks(first, last);
    DeltaFeed feed;
    feed.churned = ks.size();
    feed.forward = world_delta(churned_world, ks);
    feed.back = world_delta(base_world, ks);
    s.feeds.push_back(std::move(feed));
  }
  const io::SuffixBatch sample = base_world.render_batch(untouched);
  const auto snap = store->current();
  std::string canary = "# perfbench canary: answers of suffixes no feed changes\n";
  std::size_t pinned = 0;
  for (const hoiho::topo::SuffixGroup& g : sample.groups) {
    for (const hoiho::topo::HostnameRef& h : g.hostnames) {
      if (pinned == kCanaryQueries) break;
      const std::string name(h.hostname->full);
      const auto loc = snap->geolocator.locate(name);
      if (!loc) continue;
      canary += name + "," + hoiho::serve::format_hit(*loc) + "\n";
      ++pinned;
    }
  }
  const std::string canary_path = workdir + "/canary.txt";
  if (!write_file(canary_path, canary)) {
    *error = "cannot write " + canary_path;
    return false;
  }
  store->set_canary(canary_path);
  s.base_prior = std::make_unique<core::PriorRun>(core::PriorRun::capture(
      std::move(learned), hoiho.config(), dict.size(), s.vps, store->generation()));
  s.store = std::move(store);
  return true;
}

bool run_delta_cycle(DeltaRig& rig, std::size_t i, const core::HoihoConfig& config,
                     obs::Tracer* tracer, Result& res, DeltaCycle* cycle) {
  const hoiho::geo::GeoDictionary& dict = hoiho::geo::builtin_dictionary();
  hoiho::serve::ModelStore& store = *rig.store;
  const bool forward = i % 2 == 0;
  const DeltaFeed& feed = rig.feeds[(i / 2) % rig.feeds.size()];
  const core::WorldDelta& wd = forward ? feed.forward : feed.back;
  core::PriorRun& prior = forward ? *rig.base_prior : *rig.churned_prior;
  prior.generation = store.generation();
  const core::Hoiho hoiho(dict, config);

  DeltaCycle& c = *cycle;
  c = DeltaCycle{};
  c.churned = feed.churned;
  ++res.attempted;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  core::DeltaRunReport rep = hoiho.run_delta(wd, prior);
  const std::uint64_t t1 = now_ns();
  const std::string bytes = core::serialize_model_delta(rep.delta, dict);
  const std::uint64_t t2 = now_ns();
  hoiho::serve::ModelStore::DeltaApply applied;
  const auto err = rep.ok() ? store.apply_delta(rep.delta, &applied)
                            : std::optional<std::string>("run_delta: " + rep.error);
  const std::uint64_t t3 = now_ns();
  c.cpu_ms = (process_cpu_s() - cpu0) * 1e3;
  c.publish_ms = static_cast<double>(t3 - t0) / 1e6;
  c.run_delta_ms = static_cast<double>(t1 - t0) / 1e6;
  c.serialize_ms = static_cast<double>(t2 - t1) / 1e6;
  c.apply_ms = static_cast<double>(t3 - t2) / 1e6;
  c.relearn_ms = rep.relearn_wall_ms;
  c.dirty = rep.dirty;
  record_span(tracer, "serialize_model_delta", t1, t2, {}, bytes.size());
  record_span(tracer, "apply_delta", t2, t3);

  if (err) {
    res.fail("delta cycle " + std::to_string(i) + ": " + *err);
    return false;  // the ping-pong cannot continue from an unpublished generation
  }
  const std::string served = model_text(store.current()->stored);
  const std::string expected = forward ? model_text(model_conventions(rep.result)) : rig.base_bytes;
  if (served != expected)
    res.fail("delta cycle " + std::to_string(i) + ": serving model differs from the " +
             (forward ? "merged result" : "base model"));
  if (forward)
    rig.churned_prior = std::make_unique<core::PriorRun>(core::PriorRun::capture(
        std::move(rep.result), config, dict.size(), rig.vps, applied.new_generation));
  return true;
}

Result run_relearn(const Args& args) {
  const hoiho::geo::GeoDictionary& dict = hoiho::geo::builtin_dictionary();
  Result res;
  core::HoihoConfig config;
  config.threads = hardware_threads();
  std::string error;

  // The base is one fixed L world; the seed draws the churn feeds. Which
  // Zipf-head suffixes a base world has sets the slow cycles, and that
  // should not change from one seed to the next.
  std::vector<double> setup_ms;
  DeltaRig rig;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    const bool ok = make_delta_rig(learn_world(kBaseWorldSeed, args.tiny), args.seed + 1,
                                   kFeedsPerRound, core::Hoiho(dict, config), args.workdir, &rig,
                                   &error);
    setup_ms.push_back(ms_since(t0));
    if (!ok) {
      res.fail("set-up: " + error);
      return res;
    }
  }

  if (args.faults.reject_delta) {
    // A delta against a generation that is not serving must be refused.
    core::ModelDelta stale;
    stale.base_generation = rig.store->generation() + 7;
    stale.removes.push_back(rig.base_prior->results.front().suffix);
    ++res.attempted;
    if (const auto err = rig.store->apply_delta(stale)) res.fail("apply rejected: " + *err);
  }

  obs::Registry registry;
  std::vector<obs::SpanRecord> all;  // spans of every traced cycle
  std::vector<DeltaCycle> plain, traced;
  std::vector<obs::SpanRecord> last_spans;
  reset_peak_rss();
  const std::size_t round = 2 * rig.feeds.size();
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(args.seconds) * 1000000000ULL;
  for (std::size_t i = 0; i < round || now_ns() < deadline || i % round != 0; ++i) {
    const bool is_traced = args.trace && (i / 2) % 2 == 1;
    core::HoihoConfig cfg = config;
    cfg.registry = is_traced ? &registry : nullptr;
    obs::Tracer tracer(1u << 15);  // one per cycle, so the ring never wraps
    cfg.tracer = is_traced ? &tracer : nullptr;
    DeltaCycle c;
    if (!run_delta_cycle(rig, i, cfg, cfg.tracer, res, &c)) break;
    (is_traced ? traced : plain).push_back(c);
    if (is_traced) {
      if (tracer.dropped() != 0) res.fail("tracer dropped spans");
      res.dropped_spans += tracer.dropped();
      std::vector<obs::SpanRecord> spans = tracer.spans();
      all.insert(all.end(), spans.begin(), spans.end());
      if (i % 2 == 1) last_spans = std::move(spans);
    }
  }
  const double rss = peak_rss_mb();

  const auto collect = [](const std::vector<DeltaCycle>& cs, double DeltaCycle::*field) {
    std::vector<double> v;
    for (const DeltaCycle& c : cs) v.push_back(c.*field);
    return v;
  };
  res.detail["cycles"] = std::to_string(plain.size());
  res.detail["traced_cycles"] = std::to_string(traced.size());
  res.detail["threads"] = std::to_string(config.threads);
  if (!args.trace) {
    res.add("setup_s", median(setup_ms) / 1e3);
    res.add("op_p50_ms", median(collect(plain, &DeltaCycle::publish_ms)));
    res.add("op_tail_ms", tail_mean(collect(plain, &DeltaCycle::publish_ms)));
    res.add("op_cpu_ms", median(collect(plain, &DeltaCycle::cpu_ms)));
    return res;
  }

  // Per-layer: medians over traced cycles; stage times are per cycle.
  const StageSums st = stage_sums(all);
  const double n = traced.empty() ? 1.0 : static_cast<double>(traced.size());
  add_delta_metrics(traced, res);
  // Fingerprinting the diff input: every changed group of every feed.
  std::vector<double> fingerprint;
  for (const DeltaFeed& f : rig.feeds) {
    const std::uint64_t t0 = now_ns();
    for (const hoiho::topo::SuffixGroup& g : f.forward.changed.groups)
      core::suffix_fingerprint(g, f.forward.changed.pings);
    fingerprint.push_back(ms_since(t0));
  }
  res.add("mem.peak_rss_mb", rss);
  res.add("core.suffix_busy_ms", st.suffix_ms / n);
  res.add("core.suffix_p99_ms", percentile(st.suffix_durations_ms, 99));
  res.add("core.suffix_count", static_cast<double>(st.suffix_durations_ms.size()) / n);
  res.add("core.tag_ms", st.tag_ms / n);
  res.add("core.regex_gen_ms", st.regex_gen_ms / n);
  res.add("core.eval_ms", st.eval_ms / n);
  res.add("core.learn_ms", st.learn_ms / n);
  res.add("core.unstaged_ms", st.unstaged_ms() / n);
  res.add("core.fingerprint_ms", median(fingerprint));
  const obs::Snapshot snap = registry.snapshot();
  const double hits = static_cast<double>(snap.value("consistency_cache_hits"));
  const double misses = static_cast<double>(snap.value("consistency_cache_misses"));
  const double programs = static_cast<double>(snap.value("rx_set_programs_run"));
  res.add("regex.programs_run", programs / n);
  res.add("regex.hit_ratio", programs <= 0 ? 0 : static_cast<double>(snap.value("rx_set_hits")) / programs);
  res.add("measure.cache_hit_ratio", hits + misses <= 0 ? 0 : hits / (hits + misses));
  res.add("measure.cache_misses", misses / n);
  res.add("util.pool.tasks_stolen", static_cast<double>(snap.value("pool_tasks_stolen")) / n);
  res.add("util.pool.steal_failures", static_cast<double>(snap.value("pool_steal_failures")) / n);
  const double untraced = median(collect(plain, &DeltaCycle::publish_ms));
  res.add("obs.trace_overhead_frac",
          untraced <= 0 ? 0 : median(collect(traced, &DeltaCycle::publish_ms)) / untraced - 1);
  res.spans = std::move(last_spans);
  return res;
}

void add_delta_metrics(const std::vector<DeltaCycle>& cycles, Result& res) {
  std::vector<double> run, relearn, diff, dirty_ratio, serialize, apply;
  for (const DeltaCycle& c : cycles) {
    run.push_back(c.run_delta_ms);
    relearn.push_back(c.relearn_ms);
    diff.push_back(c.run_delta_ms - c.relearn_ms);
    dirty_ratio.push_back(c.churned == 0 ? 0 : static_cast<double>(c.dirty) / static_cast<double>(c.churned));
    serialize.push_back(c.serialize_ms);
    apply.push_back(c.apply_ms);
  }
  res.add("core.run_delta_ms", median(run));
  res.add("core.delta_relearn_ms", median(relearn));
  res.add("core.delta_diff_ms", median(diff));
  res.add("core.delta_dirty_ratio", median(dirty_ratio));
  res.add("core.delta_serialize_ms", median(serialize));
  res.add("serve.store_apply_ms", median(apply));
}

}  // namespace perfbench
