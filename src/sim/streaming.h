// Streaming ITDK-scale world generation (DESIGN.md §12).
//
// generate_world() materializes everything — topology, hostnames, truth
// records, and (via probe_pings) a dense router x VP matrix — before the
// learner sees the first suffix. That caps practical world size around 10^4
// hostnames. StreamingWorld is the scale path: it implements
// io::SuffixStream, emitting operators/routers/hostnames/RTT samples
// suffix-by-suffix in self-contained batches, so a 1M-hostname / 10k-suffix
// world is never resident at once — peak memory is the batch hostname
// budget, not the world.
//
// Three properties the batch generator doesn't have:
//
//   * Per-suffix determinism: every suffix k is generated from its own
//     Rng(mix(seed, k)), so the emitted stream is byte-identical no matter
//     how suffixes are grouped into batches (tests/test_scale_world.cc).
//   * Zipf-skewed suffix sizes: suffix k gets ~1/(k+1)^zipf_s of the
//     hostname mass (clamped), reproducing the ITDK's regime where a few
//     consumer ISPs dwarf thousands of small operators — the skew that
//     motivates largest-first seeding in Hoiho::run_stream.
//   * Spatially-embedded footprints: operators deploy around a home site
//     ("Evidence of spatial embedding", PAPERS.md) instead of sampling the
//     whole globe.
#pragma once

#include <cstdint>
#include <vector>

#include "io/suffix_stream.h"
#include "sim/internet.h"
#include "sim/probing.h"

namespace hoiho::sim {

struct StreamingWorldConfig {
  std::uint64_t seed = 1;

  std::size_t suffixes = 1000;             // operators (= suffix groups) in the world
  std::size_t target_hostnames = 100000;   // approximate total across all suffixes
  double zipf_s = 0.9;                     // suffix-size skew exponent
  std::size_t max_hostnames_per_suffix = 8192;  // clamp on the Zipf head
  std::size_t min_routers_per_suffix = 2;

  std::size_t vp_count = 64;
  std::size_t batch_hostname_budget = 8192;  // whole suffixes per batch up to this

  // Churn (incremental-relearn simulation): when churn_frac > 0, that
  // fraction of suffixes — selected deterministically from churn_seed — is
  // re-rendered from a churned rng stream. A churned suffix keeps its name
  // (the operator persists; its routers/hostnames turn over), so against an
  // unchurned world with the same seed it reads as content change on the
  // same suffix — exactly what Hoiho::run_delta re-learns.
  std::uint64_t churn_seed = 0;
  double churn_frac = 0.0;

  // Operator character (scheme mix, rates). spatial_footprint is forced on.
  WorldConfig traits;
  PingConfig ping;
};

class StreamingWorld final : public io::SuffixStream {
 public:
  StreamingWorld(const geo::GeoDictionary& dict, StreamingWorldConfig config);

  // Emits the next batch of whole suffixes (at least one; more until the
  // batch hostname budget is met), or nullopt once all suffixes streamed.
  std::optional<io::SuffixBatch> next_batch() override;

  const io::LoadReport& report() const override { return report_; }

  // Rewinds to suffix 0 and clears accounting; the regenerated stream is
  // identical (per-suffix rngs carry no cross-suffix state).
  void reset();

  const std::vector<measure::VantagePoint>& vps() const { return vps_; }
  std::size_t suffix_count() const { return config_.suffixes; }
  std::size_t next_suffix_index() const { return next_suffix_; }

  // The Zipf router plan for suffix k (set at construction; tests assert
  // skew and totals against it).
  std::size_t planned_routers(std::size_t k) const { return router_plan_[k]; }

  // True when suffix k re-renders from the churned rng stream under the
  // current churn knobs (always false at churn_frac = 0).
  bool is_churned(std::size_t k) const;

  // Indices of every churned suffix, ascending.
  std::vector<std::size_t> churned_suffixes() const;

  // The stable name of suffix k — identical whether or not k is churned
  // (the name is drawn before the churn reseed).
  std::string suffix_name(std::size_t k) const;

  // Renders exactly the given suffixes (churn applied) into one batch —
  // the WorldDelta.changed payload for an incremental relearn. Suffixes
  // whose operator renders no usable hostnames are omitted (the caller
  // turns those into WorldDelta.removed entries via suffix_name()).
  // Independent of streaming position; adds to report() like next_batch.
  io::SuffixBatch render_batch(const std::vector<std::size_t>& ks);

 private:
  // Renders suffix k (operator sample + routers + hostnames) into the
  // batch and returns the hostname refs for its group.
  std::vector<topo::HostnameRef> render_suffix(std::size_t k, io::SuffixBatch& batch,
                                               topo::RouterId* first_router);

  const geo::GeoDictionary& dict_;
  StreamingWorldConfig config_;
  LocationPools pools_;
  std::vector<measure::VantagePoint> vps_;
  std::vector<std::uint32_t> router_plan_;  // per-suffix router counts (Zipf)
  std::size_t next_suffix_ = 0;
  io::LoadReport report_;
};

}  // namespace hoiho::sim
