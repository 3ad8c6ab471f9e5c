// The Hoiho-geo driver: runs the five-stage method end-to-end over a
// topology + measurement campaign, producing one result per suffix
// (paper §5, fig. 4).
//
// This is the main entry point of the library:
//
//   hoiho::core::Hoiho hoiho(geo::builtin_dictionary());
//   hoiho::core::HoihoResult result = hoiho.run(topology, measurements);
//
// Each SuffixResult carries the chosen naming convention, its evaluation,
// the geohints learned in stage 4, and the stage-5 classification.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>

#include "core/apparent.h"
#include "core/eval.h"
#include "core/learn.h"
#include "core/rank.h"
#include "core/regex_gen.h"
#include "core/regex_sets.h"
#include "io/suffix_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hoiho::core {

struct HoihoConfig {
  ApparentConfig apparent;
  GenConfig gen;
  SetConfig sets;
  LearnConfig learn;
  RankConfig rank;

  // Suffixes with fewer tagged hostnames than this are skipped outright
  // (too little signal to learn a convention).
  std::size_t min_tagged_hostnames = 3;

  // Generation is seeded from at most this many tagged hostnames per suffix
  // (deterministic prefix); conventions are still *evaluated* on all.
  std::size_t max_seed_hostnames = 64;

  // At most this many base regexes survive per suffix (ranked by ATP)
  // before merging / class embedding / set building.
  std::size_t max_candidates = 48;

  // Stage 4 is applied to at most this many top-ranked candidate NCs.
  std::size_t learn_top_n = 4;

  // Stage 4 on/off — the paper's own ablation (§6.1: 94.0% vs 82.4%).
  bool enable_learning = true;

  // Worker threads for run(), run_stream() and run_delta(): suffix groups
  // are independent (the method is per-suffix, paper §5) and are processed
  // in parallel. 0 = one worker per hardware thread; 1 = sequential. Never
  // more workers than cores. Output is deterministic regardless: results
  // are collected by group index, identical to the sequential order.
  std::size_t threads = 0;

  // Durable streaming runs (DESIGN.md §14). Non-empty: the directory holds
  // a store of learned results (io/checkpoint.h) keyed by this config, the
  // dictionary's content and the stream's VP set. run_stream reuses every
  // stored result whose suffix fingerprint matches its incoming group and
  // commits what each batch learned, so a killed run resumes where it died
  // and a run over a new snapshot of the world relearns only the suffixes
  // that changed. Either way the final model is byte-identical to an
  // uncheckpointed run's. Ignored by run().
  std::string checkpoint_dir;

  // Stall watchdog for the learner's pool (0 = off): while waiting for the
  // workers to finish (run(), each run_stream() batch, run_delta()'s
  // relearn), workers busy on one suffix longer than this are counted in
  // `pool_worker_stalled` (one episode per suffix).
  int worker_stall_ms = 0;

  // Non-empty: run_stream writes the final learned model here when the
  // stream completes, dispatched by extension (".ncb" → binary, else text)
  // — the learner emits the serving format directly, no convert step. A
  // checkpoint-truncated run (commit failure mid-stream) does not write;
  // failures bump `pipeline_model_save_failures`. Ignored by run().
  std::string model_out;

  // Observability (DESIGN.md §11). A non-null registry/tracer receives the
  // pipeline's counters, cache hit rates, and stage spans — pass a shared
  // registry to land learner metrics in the same snapshot as serving or
  // ingestion metrics. Null (the default) means run() carries no
  // instrumentation cost beyond untaken null checks; run_report() supplies
  // private instances when these are null, so callers wanting a report
  // don't have to manage them.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

// Result for one suffix.
struct SuffixResult {
  std::string suffix;
  std::size_t hostname_count = 0;      // hostnames under this suffix
  std::size_t tagged_count = 0;        // hostnames with an apparent geohint
  std::vector<TaggedHostname> tagged;  // stage-2 output (all hostnames)

  NamingConvention nc;                 // chosen NC (empty if none learned)
  NcEvaluation eval;                   // final evaluation of `nc`
  NcClass cls = NcClass::kPoor;
  std::vector<LearnedHint> learned;    // stage-4 output

  // Content fingerprint of the suffix's inputs (hostnames, their routers
  // and the RTT rows; core/delta.h). Because the method is per-suffix, an
  // equal fingerprint on a later run means this exact result would be
  // reproduced — the key every reuse goes by. 0 = never stamped.
  std::uint64_t fingerprint = 0;

  bool has_nc() const { return !nc.empty(); }
  bool usable() const { return has_nc() && is_usable(cls); }
};

struct HoihoResult {
  std::vector<SuffixResult> suffixes;

  // Routers geolocated by usable NCs (distinct router ids).
  std::size_t geolocated_router_count() const;

  // Suffix counts by class.
  std::size_t count(NcClass c) const;
};

// The full account of one run: per-suffix outcomes plus everything the
// observability layer captured while producing them — pipeline counters,
// cache hit rates, set-matching work, and per-stage spans. This is the one
// struct consumers (benches, the daemon's demo path, tests) read instead of
// aggregating SuffixResult stat fields by hand.
struct RunReport {
  HoihoResult result;
  obs::Snapshot metrics;               // registry snapshot taken after the run
  std::vector<obs::SpanRecord> spans;  // stage spans, oldest first
  std::uint64_t dropped_spans = 0;     // ring overflow (0 unless the run is huge)

  // {"metrics": {...}, "spans": [...], "dropped_spans": N} — the metrics
  // half is obs::Snapshot::to_json, so one schema serves every consumer.
  std::string to_json(std::string_view indent = "") const;
};

// Incremental-relearning types (core/delta.h).
struct WorldDelta;
struct PriorRun;
struct DeltaRunReport;

class Hoiho {
 public:
  explicit Hoiho(const geo::GeoDictionary& dict, HoihoConfig config = {})
      : dict_(dict), config_(config) {}

  // Runs the full pipeline over every suffix group in `topo`.
  //
  // Kept as the compact form of run_report() for callers that only want the
  // results: instrumentation still lands in config.registry / config.tracer
  // when those are set, but nothing is snapshotted. Per-suffix stage times
  // and cache counters are reported exclusively through the registry
  // (pipeline_stage_us, consistency_cache_*) — RunReport is the one
  // reporting API.
  HoihoResult run(const topo::Topology& topo, const measure::Measurements& meas) const;

  // run() plus the observability report. Uses config.registry/tracer when
  // set (snapshotting whatever else the shared registry holds), otherwise
  // instruments into private instances scoped to this call.
  RunReport run_report(const topo::Topology& topo, const measure::Measurements& meas) const;

  // Streaming run (DESIGN.md §12): pulls suffix batches from `stream`,
  // learns each batch's suffixes (work-stealing across workers, exactly
  // like run()), frees the batch, and pulls the next — peak memory is one
  // or two batches, never the world. While the workers chew on batch k the
  // main thread renders batch k+1 (double buffering), so generation and
  // learning overlap.
  //
  // Results arrive in stream order, byte-identical for threads=1 and
  // threads=N. To keep memory bounded, the per-hostname payloads
  // (SuffixResult::tagged, eval.per_hostname) are cleared after each batch
  // — they point into batch-owned hostnames — so streamed results carry the
  // learned NC, hints, class, and aggregate counts, but not per-hostname
  // outcomes (HoihoResult::geolocated_router_count() reports 0).
  //
  // With config.checkpoint_dir set, the checkpoint's stored results are the
  // reuse source of learn_groups and each batch commits the results it
  // learned (DESIGN.md §14).
  HoihoResult run_stream(io::SuffixStream& stream) const;

  // run_stream() plus the observability report; also publishes the
  // stream's ingest accounting (ingest_* counters, source="stream").
  RunReport run_stream_report(io::SuffixStream& stream) const;

  // Incremental relearning (DESIGN.md §16): runs `world` — the changed
  // suffixes rendered as one self-contained batch, plus removals — through
  // learn_groups with `prior` as the reuse source, so a group whose
  // fingerprint matches its prior result reuses it verbatim and the dirty
  // rest are relearned (same work-stealing pool and cost-descending seeding
  // as run()). The report carries the merged result set — equal to a
  // from-scratch run over the churned world, modulo streaming compaction —
  // and a ModelDelta against prior.generation. Fails (report.error) without
  // running anything when the prior's learner-config or VP-set signature
  // doesn't match; a changed campaign invalidates every suffix, so the
  // caller must fall back to a full run.
  DeltaRunReport run_delta(const WorldDelta& world, const PriorRun& prior) const;

  // Runs the pipeline for one suffix group.
  SuffixResult run_suffix(const topo::SuffixGroup& group,
                          const measure::Measurements& meas) const;

  const HoihoConfig& config() const { return config_; }
  const geo::GeoDictionary& dictionary() const { return dict_; }

 private:
  struct PipelineMetrics;  // registry handles, built once per run (hoiho.cc)
  struct Workers;          // the learner's pool for one run (hoiho.cc)

  // Expected-RTT grid memo, keyed by the VP coordinates it was built for
  // (the dictionary half of the key is fixed per Hoiho). Held behind a
  // shared_ptr so Hoiho stays copyable and worker threads can share one
  // build under the mutex.
  struct GridCache {
    std::mutex mu;
    std::vector<geo::Coordinate> vp_coords;
    std::shared_ptr<const measure::ExpectedRttGrid> grid;
  };

  // Returns the grid for `meas` (building it on first use), or null when
  // over the size cap. The returned pointer keeps it alive.
  std::shared_ptr<const measure::ExpectedRttGrid> expected_rtt_grid(
      const measure::Measurements& meas) const;

  // What learn_groups returns: results[i] is groups[i]'s result, copied
  // from the reuse source when reused[i] is set, learned otherwise.
  struct Learned {
    std::vector<SuffixResult> results;
    std::vector<char> reused;
  };

  // The learner's one fan-out, behind run(), each run_stream() batch and
  // run_delta(), and the one place a stored result is reused. Each task
  // fingerprints its group; a result in `reuse` with that fingerprint and
  // suffix is copied (counted in delta_suffixes_reused), anything else is
  // learned and stamped with the fingerprint. Tasks run largest group first
  // on `workers`' pool (started on first use, unless the clamp leaves one
  // worker) or inline. `while_learning` runs on this thread while the
  // workers learn.
  Learned learn_groups(std::span<const topo::SuffixGroup> groups,
                       const measure::Measurements& meas, PipelineMetrics* pm,
                       obs::Tracer* tracer, Workers& workers, const PriorRun* reuse = nullptr,
                       const std::function<void()>& while_learning = {}) const;

  // run() with explicit instrumentation sinks (either may be null).
  HoihoResult run_instrumented(const topo::Topology& topo, const measure::Measurements& meas,
                               obs::Registry* registry, obs::Tracer* tracer) const;

  HoihoResult run_stream_instrumented(io::SuffixStream& stream, obs::Registry* registry,
                                      obs::Tracer* tracer) const;

  SuffixResult run_suffix_instrumented(const topo::SuffixGroup& group,
                                       const measure::Measurements& meas, PipelineMetrics* pm,
                                       obs::Tracer* tracer) const;

  SuffixResult run_suffix_impl(const topo::SuffixGroup& group, const measure::Measurements& meas,
                               measure::ConsistencyCache& cache, PipelineMetrics* pm,
                               obs::Tracer* tracer) const;

  const geo::GeoDictionary& dict_;
  HoihoConfig config_;
  std::shared_ptr<GridCache> grid_cache_ = std::make_shared<GridCache>();
};

}  // namespace hoiho::core
