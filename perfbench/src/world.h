// Inputs shared by the learner workloads: the seeded L-tier streaming world,
// its pre-rendered batches, and the replay stream that hands them to
// Hoiho::run_stream.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/delta.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "io/suffix_stream.h"
#include "serve/model_store.h"
#include "sim/streaming.h"

namespace perfbench {

namespace core = hoiho::core;
namespace io = hoiho::io;
namespace sim = hoiho::sim;

// The L tier (1000 suffixes, ~100k hostnames, Zipf-skewed) with the seed
// taken from the command line; `tiny` shrinks it for the self-test.
sim::StreamingWorldConfig learn_world(std::uint64_t seed, bool tiny);

// A whole world rendered into memory, so that rendering is set-up work and
// never part of a timed learner run.
struct Rendered {
  std::vector<io::SuffixBatch> batches;
  io::LoadReport report;
  std::uint64_t signature = 0;
  std::size_t hostnames = 0;
  std::unordered_map<std::string, std::size_t> batch_of;  // suffix -> batch index
};
Rendered render(const sim::StreamingWorldConfig& swc);

// Replays pre-rendered batches, moving each out on next_batch(), and
// records a "next_batch" span per call so that traces show the batch
// boundaries and that input costs nothing on the learner's path.
class ReplayStream final : public io::SuffixStream {
 public:
  ReplayStream(Rendered rendered, obs::Tracer* tracer)
      : rendered_(std::move(rendered)), tracer_(tracer) {}

  std::optional<io::SuffixBatch> next_batch() override;
  const io::LoadReport& report() const override { return rendered_.report; }
  std::uint64_t signature() const override { return rendered_.signature; }

  double next_batch_ms() const { return static_cast<double>(busy_ns_) / 1e6; }

 private:
  Rendered rendered_;
  obs::Tracer* tracer_;
  std::size_t next_ = 0;
  std::uint64_t busy_ns_ = 0;
};

// Everything with a convention, kPoor included: what a model file holds.
std::vector<core::StoredConvention> model_conventions(const core::HoihoResult& result);

// The canonical text serialization (sorted by suffix) used for byte checks.
std::string model_text(std::vector<core::StoredConvention> stored);

// Per-suffix stage accounting taken from one run's spans.
struct StageSums {
  double suffix_ms = 0, tag_ms = 0, regex_gen_ms = 0, eval_ms = 0, learn_ms = 0;
  std::vector<double> suffix_durations_ms;
  double unstaged_ms() const { return suffix_ms - tag_ms - regex_gen_ms - eval_ms - learn_ms; }
};
StageSums stage_sums(const std::vector<obs::SpanRecord>& spans);

// --- the delta path (relearn_delta, and learn_L's traced run) --------------

// One churn feed and its way back: the churned rendering of a set of
// suffixes, and the base rendering of the same suffixes.
struct DeltaFeed {
  core::WorldDelta forward, back;
  std::size_t churned = 0;
};

// A base world learned and loaded into a serve::ModelStore with a canary,
// plus churn feeds of 5% of the suffixes each.
struct DeltaRig {
  std::unique_ptr<hoiho::serve::ModelStore> store;
  std::unique_ptr<core::PriorRun> base_prior, churned_prior;
  std::string base_bytes;  // model_text of the base model
  std::vector<DeltaFeed> feeds;
  std::vector<hoiho::measure::VantagePoint> vps;
};

// Learns `base` with `hoiho`, loads it into a store under `workdir`, and
// renders `feeds` feeds (at most 20, so that a round churns every suffix
// once). Feeds are drawn from `churn_seed`: a seeded shuffle of the
// suffixes, a few held back for the canary, the rest cut into 5% groups.
bool make_delta_rig(const sim::StreamingWorldConfig& base, std::uint64_t churn_seed,
                    std::size_t feeds, const core::Hoiho& hoiho, const std::string& workdir,
                    DeltaRig* rig, std::string* error);

struct DeltaCycle {
  double publish_ms = 0, cpu_ms = 0, run_delta_ms = 0, relearn_ms = 0, serialize_ms = 0,
         apply_ms = 0;
  std::size_t dirty = 0, churned = 0;
};

// Cycle `i` of the ping-pong base -> churn_k -> base: even cycles apply
// feed k's churn, odd cycles take it back. Times Hoiho::run_delta,
// core::serialize_model_delta and ModelStore::apply_delta, then checks that
// the store re-serializes to the merged result (forward) or to the base
// model (back). Counts the cycle and any failure in `res`; returns false
// when the ping-pong cannot continue.
bool run_delta_cycle(DeltaRig& rig, std::size_t i, const core::HoihoConfig& config,
                     obs::Tracer* tracer, Result& res, DeltaCycle* cycle);

// The core/delta and ModelStore per-layer metrics: medians over `cycles`.
void add_delta_metrics(const std::vector<DeltaCycle>& cycles, Result& res);

}  // namespace perfbench
