// End-to-end pipeline performance bench: runs the full five-stage method
// over a multi-operator world and reports wall time, hostname throughput,
// and consistency-cache hit rate for the sequential run and runs at
// increasing thread counts.
//
// Every timed run carries a live obs::Registry (so the numbers include the
// steady-state instrumentation cost, which is what production pays), and
// the per-run stats in BENCH_PIPELINE.json are read back *from* the
// registry snapshot rather than summed off SuffixResult fields — the bench
// is also the compatibility check that the registry view agrees with the
// old one. Each run's snapshot is embedded under "registry"; CI guards
// that schema (a counter disappearing fails the perf-smoke job).
//
// Scale tiers (--scale={S,M,L,XL}, default S):
//
//   S   48-operator materialized world, the historical CI baseline corpus
//       (cached_{1,2,4,N}t thread-count rows, BENCH_PIPELINE.json).
//   M   200-suffix / ~20k-hostname streaming world   (perf-smoke in CI)
//   L   1000-suffix / ~100k-hostname streaming world (the ISSUE target)
//   XL  10000-suffix / ~1M-hostname streaming world  (manual / nightly only)
//
// M/L/XL stream through Hoiho::run_stream (work-stealing pool, bounded RSS);
// their JSON lands in BENCH_PIPELINE_<tier>.json and includes the peak-RSS
// gauge and steal counters. Note VmHWM is a process-wide high-water mark:
// within one bench process later runs inherit earlier runs' peak, so the
// per-run value is an upper bound, and the ceiling CI asserts covers the
// whole bench.
//
// Emits BENCH_PIPELINE*.json (path overridable via argv) so the perf
// trajectory is tracked across PRs; the checked-in copy records the numbers
// from the machine that produced this revision.
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sstream>
#include <unordered_set>

#include "common.h"
#include "core/delta.h"
#include "core/nc_io.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "sim/streaming.h"
#include "util/strings.h"
#include "util/thread_pool.h"

using namespace hoiho;

namespace {

struct RunResult {
  std::string label;
  std::size_t threads = 1;
  double wall_ms = 0;
  double hostnames_per_sec = 0;
  obs::Snapshot snap;  // rep-0 registry snapshot (counters for one full run)
  std::size_t suffixes = 0, usable = 0;

  std::uint64_t cache_hits() const { return snap.value("consistency_cache_hits"); }
  std::uint64_t cache_misses() const { return snap.value("consistency_cache_misses"); }
  double hit_rate() const {
    const std::uint64_t total = cache_hits() + cache_misses();
    return total == 0 ? 0.0 : static_cast<double>(cache_hits()) / static_cast<double>(total);
  }
  double stage_ms(std::string_view stage) const {
    return static_cast<double>(
               snap.value("pipeline_stage_us{stage=\"" + std::string(stage) + "\"}")) /
           1e3;
  }
  std::int64_t gauge(std::string_view name) const {
    const obs::Snapshot::Entry* e = snap.find(name);
    return e == nullptr ? 0 : e->gauge;
  }
};

// One timed rep of one configuration; folds the wall time (min) and, on the
// first rep, the registry snapshot into `out`. Reps are interleaved across
// configurations by the caller — timing each label's reps back-to-back lets
// slow process drift (allocator state, thermal/cgroup throttling) bias the
// later labels, which on a small corpus is larger than the effect measured.
void time_one_rep(RunResult& out, const sim::World& world, const measure::Measurements& pings,
                  std::size_t hostnames) {
  core::HoihoConfig config;
  config.threads = out.threads;
  // Fresh registry per rep: each snapshot covers exactly one run, and the
  // timing includes the armed-counter cost every rep.
  obs::Registry registry;
  config.registry = &registry;
  const auto t0 = std::chrono::steady_clock::now();
  const core::HoihoResult result = bench::run_hoiho(world, pings, config);
  const auto t1 = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (out.wall_ms == 0 || ms < out.wall_ms) out.wall_ms = ms;
  if (out.snap.entries.empty()) {
    out.snap = registry.snapshot();
    out.suffixes = result.suffixes.size();
    for (const core::SuffixResult& sr : result.suffixes)
      if (sr.usable()) ++out.usable;
  }
  out.hostnames_per_sec =
      out.wall_ms <= 0 ? 0 : static_cast<double>(hostnames) / (out.wall_ms / 1e3);
}

// Times Hoiho::run_stream over a fresh StreamingWorld per rep (world
// rendering overlaps learning by design, so generation cost is part of the
// measured pipeline, exactly as it would be against a file-backed stream).
RunResult time_stream_run(const std::string& label, const sim::StreamingWorldConfig& swc,
                          std::size_t threads, int reps, std::size_t* hostnames_out,
                          const std::string& checkpoint_dir) {
  core::HoihoConfig config;
  config.threads = threads;

  RunResult out;
  out.label = label;
  out.threads = threads;
  out.wall_ms = 1e300;
  std::size_t hostnames = 0;
  for (int rep = 0; rep < reps; ++rep) {
    if (!checkpoint_dir.empty()) {
      // One WAL directory per (label, rep) so every rep pays the full
      // commit cost — resuming a finished checkpoint would time nothing.
      config.checkpoint_dir =
          checkpoint_dir + "/" + label + "-rep" + std::to_string(rep);
    }
    sim::StreamingWorld world(geo::builtin_dictionary(), swc);
    obs::Registry registry;
    config.registry = &registry;
    const auto t0 = std::chrono::steady_clock::now();
    const core::HoihoResult result =
        core::Hoiho(geo::builtin_dictionary(), config).run_stream(world);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < out.wall_ms) out.wall_ms = ms;
    if (rep == 0) {
      out.snap = registry.snapshot();
      out.suffixes = result.suffixes.size();
      for (const core::SuffixResult& sr : result.suffixes)
        if (sr.usable()) ++out.usable;
      hostnames = world.report().records;
    }
  }
  if (hostnames_out != nullptr) *hostnames_out = hostnames;
  out.hostnames_per_sec =
      out.wall_ms <= 0 ? 0 : static_cast<double>(hostnames) / (out.wall_ms / 1e3);
  return out;
}

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

// --- Incremental relearning (--delta-frac) --------------------------------
//
// Measures the whole delta pipeline against its from-scratch equivalent:
// base run → churn churn_frac of the suffixes → (a) full relearn of the
// churned world, (b) render only the churned suffixes + Hoiho::run_delta +
// ModelStore::apply_delta. Byte-identity of (a)'s and (b)'s serialized
// models is asserted (the DESIGN.md §16 contract), and the headline ratio
// delta_wall_ms / full_wall_ms is what CI gates (< 0.10 at 5% churn).
struct DeltaBench {
  double frac = 0;
  std::size_t churned = 0, dirty = 0, reused = 0, added = 0, removed = 0;
  std::size_t upserts = 0, removes = 0, delta_bytes = 0;
  double full_wall_ms = 0, delta_wall_ms = 0, relearn_wall_ms = 0, apply_us = 0;
  bool byte_identical = false, store_identical = false;
  std::string error;
};

std::string serialized_model(std::vector<core::StoredConvention> stored) {
  core::sort_conventions(stored);
  std::ostringstream out;
  core::save_conventions(out, stored, geo::builtin_dictionary());
  return out.str();
}

// Everything with a convention, kPoor included — the model-file contract
// (Hoiho::run_stream's model_out path and ModelSnapshot::stored both keep
// kPoor records; only the Geolocator skips them).
std::vector<core::StoredConvention> model_stored(const core::HoihoResult& result) {
  std::vector<core::StoredConvention> stored;
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.has_nc()) stored.push_back(core::StoredConvention{sr.nc, sr.cls});
  return stored;
}

DeltaBench run_delta_bench(const sim::StreamingWorldConfig& base_swc, double frac,
                           std::size_t threads, const std::string& tmp_prefix) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  DeltaBench db;
  db.frac = frac;

  core::HoihoConfig config;
  config.threads = threads;
  const core::Hoiho hoiho(dict, config);

  // Base run over the unchurned world; its results become the PriorRun.
  sim::StreamingWorld base_world(dict, base_swc);
  core::HoihoResult base_result = hoiho.run_stream(base_world);
  const std::vector<core::StoredConvention> base_stored = model_stored(base_result);
  const core::PriorRun prior = core::PriorRun::capture(
      std::move(base_result), config, dict.size(), base_world.vps(), /*generation=*/1);

  sim::StreamingWorldConfig churned_swc = base_swc;
  churned_swc.churn_frac = frac;
  churned_swc.churn_seed = 4242;

  // (a) From-scratch relearn of the churned world — the cost a non-
  // incremental deployment pays for any churn at all.
  sim::StreamingWorld full_world(dict, churned_swc);
  const auto t_full = Clock::now();
  const core::HoihoResult full_result = hoiho.run_stream(full_world);
  db.full_wall_ms = ms_since(t_full);
  const std::string full_bytes = serialized_model(model_stored(full_result));

  // (b) Incremental: render only the churned suffixes, diff, relearn dirty.
  // The timed region covers rendering + diffing + relearning + merging —
  // everything a production incremental pass would do given a change feed.
  sim::StreamingWorld delta_world(dict, churned_swc);
  const std::vector<std::size_t> ks = delta_world.churned_suffixes();
  db.churned = ks.size();
  const auto t_delta = Clock::now();
  core::WorldDelta wd;
  wd.changed = delta_world.render_batch(ks);
  {
    // A churned operator that rendered no usable hostnames left the world.
    std::unordered_set<std::string_view> present;
    for (const topo::SuffixGroup& g : wd.changed.groups) present.insert(g.suffix);
    for (const std::size_t k : ks) {
      std::string name = delta_world.suffix_name(k);
      if (present.find(name) == present.end()) wd.removed.push_back(std::move(name));
    }
  }
  const core::DeltaRunReport rep = hoiho.run_delta(wd, prior);
  db.delta_wall_ms = ms_since(t_delta);
  if (!rep.ok()) {
    db.error = rep.error;
    return db;
  }
  db.dirty = rep.dirty;
  db.reused = rep.reused;
  db.added = rep.added;
  db.removed = rep.removed;
  db.relearn_wall_ms = rep.relearn_wall_ms;
  db.upserts = rep.delta.upserts.size();
  db.removes = rep.delta.removes.size();
  db.delta_bytes = core::serialize_model_delta(rep.delta, dict).size();
  db.byte_identical = serialized_model(model_stored(rep.result)) == full_bytes;

  // Serving half: publish the base model, apply the ModelDelta live, and
  // check the successor snapshot re-serializes to the from-scratch bytes.
  const std::string base_path = tmp_prefix + ".delta-base.nc";
  std::string save_error;
  if (!core::save_conventions_to_file(base_path, base_stored, dict, &save_error)) {
    db.error = "save base model: " + save_error;
    return db;
  }
  serve::ModelStore store(dict, base_path);
  if (const auto err = store.reload()) {
    db.error = "load base model: " + *err;
    std::remove(base_path.c_str());
    return db;
  }
  core::ModelDelta delta = rep.delta;
  delta.base_generation = store.generation();  // the reload's published number
  serve::ModelStore::DeltaApply applied;
  const auto t_apply = Clock::now();
  const auto apply_err = store.apply_delta(delta, &applied);
  db.apply_us = ms_since(t_apply) * 1e3;
  if (apply_err) {
    db.error = "apply_delta: " + *apply_err;
  } else {
    db.store_identical = serialized_model(store.current()->stored) == full_bytes;
  }
  std::remove(base_path.c_str());
  return db;
}

std::string delta_json(const DeltaBench& db) {
  const double ratio = db.full_wall_ms <= 0 ? 0 : db.delta_wall_ms / db.full_wall_ms;
  std::string out = "{\"frac\": " + fmt3(db.frac);
  out += ", \"churned\": " + std::to_string(db.churned);
  out += ", \"dirty\": " + std::to_string(db.dirty);
  out += ", \"reused\": " + std::to_string(db.reused);
  out += ", \"added\": " + std::to_string(db.added);
  out += ", \"removed\": " + std::to_string(db.removed);
  out += ", \"upserts\": " + std::to_string(db.upserts);
  out += ", \"removes\": " + std::to_string(db.removes);
  out += ", \"delta_bytes\": " + std::to_string(db.delta_bytes);
  out += ", \"full_wall_ms\": " + fmt3(db.full_wall_ms);
  out += ", \"delta_wall_ms\": " + fmt3(db.delta_wall_ms);
  out += ", \"relearn_wall_ms\": " + fmt3(db.relearn_wall_ms);
  out += ", \"apply_us\": " + fmt3(db.apply_us);
  out += ", \"delta_relearn_wall_over_full\": " + fmt3(ratio);
  out += ", \"byte_identical\": " + std::string(db.byte_identical ? "true" : "false");
  out += ", \"store_identical\": " + std::string(db.store_identical ? "true" : "false");
  out += "}";
  return out;
}

sim::StreamingWorldConfig tier_config(char scale) {
  sim::StreamingWorldConfig swc;
  swc.seed = 99;
  swc.traits.geohint_scheme_rate = 0.8;
  swc.traits.hostname_rate = 0.8;
  switch (scale) {
    case 'M':
      swc.suffixes = 200;
      swc.target_hostnames = 20000;
      swc.max_hostnames_per_suffix = 2048;
      swc.vp_count = 32;
      swc.batch_hostname_budget = 4096;
      break;
    case 'L':
      swc.suffixes = 1000;
      swc.target_hostnames = 100000;
      swc.max_hostnames_per_suffix = 8192;
      swc.vp_count = 64;
      swc.batch_hostname_budget = 8192;
      break;
    case 'X':  // XL
      swc.suffixes = 10000;
      swc.target_hostnames = 1000000;
      swc.max_hostnames_per_suffix = 16384;
      swc.vp_count = 64;
      swc.batch_hostname_budget = 16384;
      break;
  }
  return swc;
}

int run_stream_tier(const std::string& scale, const std::string& out_path, int reps,
                    const std::string& checkpoint_dir, double delta_frac) {
  const sim::StreamingWorldConfig swc = tier_config(scale[0]);
  const std::size_t hw = util::resolve_threads(0);
  std::printf("pipeline_e2e --scale=%s: %zu suffixes, ~%zu hostnames target, %zu VPs, "
              "batch budget %zu, %zu hardware threads, best of %d reps%s\n\n",
              scale.c_str(), swc.suffixes, swc.target_hostnames, swc.vp_count,
              swc.batch_hostname_budget, hw, reps,
              checkpoint_dir.empty() ? "" : " (checkpointed)");
  if (!checkpoint_dir.empty()) ::mkdir(checkpoint_dir.c_str(), 0755);

  std::size_t hostnames = 0;
  std::vector<RunResult> runs;
  runs.push_back(time_stream_run("stream_1t", swc, 1, reps, &hostnames, checkpoint_dir));
  runs.push_back(time_stream_run("stream_4t", swc, 4, reps, nullptr, checkpoint_dir));
  if (hw > 4)
    runs.push_back(time_stream_run("stream_" + std::to_string(hw) + "t", swc, hw, reps,
                                   nullptr, checkpoint_dir));

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"run", "threads", "wall ms", "hostnames/s", "batches", "committed",
                  "stolen", "steal fails", "peak RSS MB", "usable NCs"});
  for (const RunResult& r : runs) {
    rows.push_back(
        {r.label, std::to_string(r.threads), fmt3(r.wall_ms), fmt3(r.hostnames_per_sec),
         std::to_string(r.snap.value("pipeline_stream_batches")),
         std::to_string(r.snap.value("checkpoint_batches_committed")),
         std::to_string(r.snap.value("pool_tasks_stolen")),
         std::to_string(r.snap.value("pool_steal_failures")),
         fmt3(static_cast<double>(r.gauge("pipeline_peak_rss_bytes")) / (1024.0 * 1024.0)),
         std::to_string(r.usable) + "/" + std::to_string(r.suffixes)});
  }
  bench::print_table(rows);

  const double scale4 = runs[1].wall_ms <= 0 ? 0 : runs[0].wall_ms / runs[1].wall_ms;
  std::int64_t peak_rss = 0;
  for (const RunResult& r : runs)
    peak_rss = std::max(peak_rss, r.gauge("pipeline_peak_rss_bytes"));
  std::printf("\n4-thread speedup over 1: %.2fx; peak RSS %.1f MB\n", scale4,
              static_cast<double>(peak_rss) / (1024.0 * 1024.0));


  DeltaBench db;
  if (delta_frac > 0) {
    db = run_delta_bench(swc, delta_frac, hw, out_path);
    if (!db.error.empty()) {
      std::fprintf(stderr, "delta bench failed: %s\n", db.error.c_str());
      return 1;
    }
    std::printf("\ndelta relearn (%.0f%% churn): %zu churned (%zu dirty, %zu reused, "
                "%zu added, %zu removed); full %.1fms vs delta %.1fms (ratio %.3f); "
                "apply %.0fus; model bytes %s, store bytes %s\n",
                100.0 * delta_frac, db.churned, db.dirty, db.reused, db.added, db.removed,
                db.full_wall_ms, db.delta_wall_ms,
                db.full_wall_ms <= 0 ? 0.0 : db.delta_wall_ms / db.full_wall_ms,
                db.apply_us, db.byte_identical ? "identical" : "DIVERGED",
                db.store_identical ? "identical" : "DIVERGED");
    if (!db.byte_identical || !db.store_identical) {
      std::fprintf(stderr, "delta bench: merged model diverged from from-scratch run\n");
      return 1;
    }
  }

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"pipeline_e2e\",\n";
  out << "  \"scale\": \"" << scale << "\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"world\": {\"suffixes\": " << swc.suffixes << ", \"hostnames\": " << hostnames
      << ", \"vps\": " << swc.vp_count << ", \"batch_hostname_budget\": "
      << swc.batch_hostname_budget << "},\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"label\": \"" << r.label << "\", \"threads\": " << r.threads
        << ", \"wall_ms\": " << fmt3(r.wall_ms)
        << ", \"hostnames_per_sec\": " << fmt3(r.hostnames_per_sec)
        << ", \"stream_batches\": " << r.snap.value("pipeline_stream_batches")
        << ", \"checkpoint_batches_committed\": "
        << r.snap.value("checkpoint_batches_committed")
        << ", \"tasks_stolen\": " << r.snap.value("pool_tasks_stolen")
        << ", \"steal_failures\": " << r.snap.value("pool_steal_failures")
        << ", \"peak_rss_bytes\": " << r.gauge("pipeline_peak_rss_bytes")
        << ", \"cache_hit_rate\": " << fmt3(r.hit_rate())
        << ", \"suffixes\": " << r.suffixes << ", \"usable\": " << r.usable
        << ",\n     \"registry\": " << r.snap.to_json("     ") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  if (delta_frac > 0) out << "  \"delta\": " << delta_json(db) << ",\n";
  out << "  \"derived\": {\"speedup_4t_vs_1t\": " << fmt3(scale4)
      << ", \"peak_rss_bytes\": " << peak_rss << "}\n";
  out << "}\n";
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_e2e [--scale={S,M,L,XL}] [--checkpoint-dir=DIR] "
               "[--delta-frac=F] [out.json] [reps]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "S";
  std::string checkpoint_dir;
  double delta_frac = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--scale=")) {
      scale = arg.substr(8);
    } else if (arg.starts_with("--checkpoint-dir=")) {
      checkpoint_dir = arg.substr(17);
    } else if (arg.starts_with("--delta-frac=")) {
      const std::string_view v = arg.substr(13);
      const std::optional<double> frac = util::parse_double(v);
      if (!frac) {
        std::fprintf(stderr, "pipeline_e2e: --delta-frac: '%.*s' is not a number\n",
                     static_cast<int>(v.size()), v.data());
        return usage();
      }
      delta_frac = *frac;
    } else if (arg.starts_with("-")) {
      std::fprintf(stderr, "pipeline_e2e: unknown flag '%s'\n", argv[i]);
      return usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (scale != "S" && scale != "M" && scale != "L" && scale != "XL") return usage();
  if (positional.size() > 2) {
    std::fprintf(stderr, "pipeline_e2e: unexpected argument '%s'\n", positional[2].c_str());
    return usage();
  }
  int reps = scale == "S" ? 3 : scale == "M" ? 2 : 1;
  if (positional.size() > 1) {
    const std::optional<std::uint64_t> n = util::parse_u64(positional[1]);
    if (!n || *n < 1 || *n > 1000000) {
      std::fprintf(stderr, "pipeline_e2e: reps: '%s' is not a positive integer\n",
                   positional[1].c_str());
      return usage();
    }
    reps = static_cast<int>(*n);
  }
  if (!checkpoint_dir.empty() && scale == "S") {
    std::fprintf(stderr, "pipeline_e2e: --checkpoint-dir applies to the streaming "
                         "tiers (M/L/XL) only\n");
    return 2;
  }
  if (delta_frac < 0 || delta_frac >= 1 || (delta_frac > 0 && scale == "S")) {
    std::fprintf(stderr, "pipeline_e2e: --delta-frac takes 0<F<1 and applies to the "
                         "streaming tiers (M/L/XL) only\n");
    return 2;
  }
  const std::string default_out =
      scale == "S" ? "BENCH_PIPELINE.json" : "BENCH_PIPELINE_" + scale + ".json";
  const std::string out_path = positional.size() > 0 ? positional[0] : default_out;

  if (scale != "S") return run_stream_tier(scale, out_path, reps, checkpoint_dir, delta_frac);

  // A multi-operator world heavy enough that per-suffix work dominates.
  sim::WorldConfig wc;
  wc.seed = 99;
  wc.operators = 48;
  wc.geohint_scheme_rate = 0.8;
  wc.hostname_rate = 0.8;
  const sim::World world = sim::generate_world(geo::builtin_dictionary(), wc);
  const measure::Measurements pings = sim::probe_pings(world, {});

  std::size_t hostnames = 0;
  const auto groups = world.topology.group_by_suffix();
  for (const topo::SuffixGroup& g : groups) hostnames += g.hostnames.size();

  const std::size_t hw = util::resolve_threads(0);
  std::printf("pipeline_e2e: %zu operators, %zu routers, %zu hostnames, %zu suffix groups, "
              "%zu hardware threads, best of %d reps\n\n",
              world.operators.size(), world.topology.size(), hostnames, groups.size(), hw, reps);

  std::vector<RunResult> runs;
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  for (const std::size_t threads : thread_counts) {
    RunResult r;
    r.label = "cached_" + std::to_string(threads) + "t";
    r.threads = threads;
    runs.push_back(std::move(r));
  }
  // Interleave: rep r of every configuration before rep r+1 of any, so
  // process-wide drift spreads evenly across labels.
  for (int rep = 0; rep < reps; ++rep)
    for (RunResult& r : runs) time_one_rep(r, world, pings, hostnames);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"run", "threads", "wall ms", "hostnames/s", "hit rate",
                  "tag/regex/eval/learn ms", "usable NCs"});
  for (const RunResult& r : runs) {
    char hit[32];
    std::snprintf(hit, sizeof hit, "%.1f%%", 100.0 * r.hit_rate());
    rows.push_back({r.label, std::to_string(r.threads), fmt3(r.wall_ms),
                    fmt3(r.hostnames_per_sec), hit,
                    fmt3(r.stage_ms("tag")) + "/" + fmt3(r.stage_ms("regex_gen")) + "/" +
                        fmt3(r.stage_ms("eval")) + "/" + fmt3(r.stage_ms("learn")),
                    std::to_string(r.usable) + "/" + std::to_string(r.suffixes)});
  }
  bench::print_table(rows);

  const double scale4 = runs[2].wall_ms <= 0 ? 0 : runs[0].wall_ms / runs[2].wall_ms;
  std::printf("\n4-thread speedup over 1: %.2fx\n", scale4);

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"pipeline_e2e\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"world\": {\"operators\": " << world.operators.size()
      << ", \"routers\": " << world.topology.size() << ", \"hostnames\": " << hostnames
      << ", \"suffix_groups\": " << groups.size() << "},\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"label\": \"" << r.label << "\", \"threads\": " << r.threads
        << ", \"wall_ms\": " << fmt3(r.wall_ms)
        << ", \"hostnames_per_sec\": " << fmt3(r.hostnames_per_sec)
        << ", \"cache_hit_rate\": " << fmt3(r.hit_rate())
        << ", \"cache_hits\": " << r.cache_hits() << ", \"cache_misses\": " << r.cache_misses()
        << ", \"prefilter_rejects\": " << r.snap.value("consistency_cache_prefilter_rejects")
        << ", \"stage_ms\": {\"tag\": " << fmt3(r.stage_ms("tag"))
        << ", \"regex\": " << fmt3(r.stage_ms("regex_gen"))
        << ", \"eval\": " << fmt3(r.stage_ms("eval"))
        << ", \"learn\": " << fmt3(r.stage_ms("learn")) << "}"
        << ", \"suffixes\": " << r.suffixes << ", \"usable\": " << r.usable
        << ",\n     \"registry\": " << r.snap.to_json("     ") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"derived\": {\"speedup_4t_vs_1t\": " << fmt3(scale4) << "}\n";
  out << "}\n";
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
