// learn_L: the operator's batch job. Learn the whole L-tier model once with
// Hoiho::run_stream at threads = nproc, then publish it with
// core::save_model_to_file (ncb). Rendering happens before each timed run,
// so a faster sim::render_hostname cannot pass for a faster learner.
//
// The worlds come from a fixed pool; the seed picks which of them a run
// learns. Correctness: every run's model file must be byte-identical to the
// digest recorded for its world in perfbench/references.txt (models stay
// byte-identical across changes that do not mean to change them). A world
// with no recorded digest (the self-test's tiny worlds) falls back to the
// model learned once at threads = 1 (threads=1 == N is the repository's
// determinism invariant).
//
// The traced run also measures the delta path on one of its worlds: a 5%
// churn feed through Hoiho::run_delta, core::serialize_model_delta and
// serve::ModelStore::apply_delta, taken back again, for a few feeds.
#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "core/delta.h"
#include "core/ncb.h"
#include "geo/dictionary.h"
#include "obs/metrics.h"
#include "world.h"

namespace perfbench {

sim::StreamingWorldConfig learn_world(std::uint64_t seed, bool tiny) {
  sim::StreamingWorldConfig swc;
  swc.seed = seed;
  swc.ping.seed = seed * 2 + 1;
  swc.traits.geohint_scheme_rate = 0.8;
  swc.traits.hostname_rate = 0.8;
  if (tiny) {
    swc.suffixes = 40;
    swc.target_hostnames = 2000;
    swc.max_hostnames_per_suffix = 512;
    swc.vp_count = 16;
    swc.batch_hostname_budget = 512;
  } else {
    swc.suffixes = 1000;
    swc.target_hostnames = 100000;
    swc.max_hostnames_per_suffix = 8192;
    swc.vp_count = 64;
    swc.batch_hostname_budget = 8192;
  }
  return swc;
}

Rendered render(const sim::StreamingWorldConfig& swc) {
  sim::StreamingWorld world(hoiho::geo::builtin_dictionary(), swc);
  Rendered r;
  r.signature = world.signature();
  while (std::optional<io::SuffixBatch> b = world.next_batch()) {
    for (const hoiho::topo::SuffixGroup& g : b->groups) r.batch_of[g.suffix] = r.batches.size();
    r.hostnames += b->hostname_count();
    r.batches.push_back(std::move(*b));
  }
  r.report = world.report();
  return r;
}

std::optional<io::SuffixBatch> ReplayStream::next_batch() {
  const std::uint64_t t0 = now_ns();
  if (next_ == rendered_.batches.size()) return std::nullopt;
  const std::size_t idx = next_++;
  std::optional<io::SuffixBatch> out(std::move(rendered_.batches[idx]));
  const std::uint64_t t1 = now_ns();
  busy_ns_ += t1 - t0;
  record_span(tracer_, "next_batch", t0, t1, std::to_string(idx), out->hostname_count());
  return out;
}

std::vector<core::StoredConvention> model_conventions(const core::HoihoResult& result) {
  std::vector<core::StoredConvention> stored;
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.has_nc()) stored.push_back(core::StoredConvention{sr.nc, sr.cls});
  return stored;
}

std::string model_text(std::vector<core::StoredConvention> stored) {
  core::sort_conventions(stored);
  std::ostringstream out;
  core::save_conventions(out, stored, hoiho::geo::builtin_dictionary());
  return out.str();
}

StageSums stage_sums(const std::vector<obs::SpanRecord>& spans) {
  StageSums s;
  for (const obs::SpanRecord& r : spans) {
    const double ms = static_cast<double>(r.dur_ns) / 1e6;
    if (r.name == "suffix") {
      s.suffix_ms += ms;
      s.suffix_durations_ms.push_back(ms);
    } else if (r.name == "tag") {
      s.tag_ms += ms;
    } else if (r.name == "regex_gen") {
      s.regex_gen_ms += ms;
    } else if (r.name == "eval") {
      s.eval_ms += ms;
    } else if (r.name == "learn") {
      s.learn_ms += ms;
    }
  }
  return s;
}

namespace {

constexpr std::size_t kTracerCapacity = 1u << 15;
constexpr std::size_t kWorlds = 4;            // learned by one run
constexpr std::size_t kPoolWorlds = 16;       // world seeds kPoolFirstSeed + p
constexpr std::uint64_t kPoolFirstSeed = 1000;
// The pool in kWorlds strata of four by learn cost (run_stream + save at 4
// threads on a 4-core Xeon host: 307-365, 377-401, 401-426 and 438-540 ms).
// A run learns one world of each stratum, picked by the seed, so that every
// run weighs cheap and costly worlds alike.
constexpr std::uint64_t kStrata[kWorlds][4] = {
    {1008, 1009, 1010, 1002},
    {1015, 1007, 1003, 1006},
    {1013, 1014, 1001, 1012},
    {1005, 1011, 1004, 1000},
};
constexpr std::size_t kDeltaFeeds = 4;        // traced run: 5% churn feeds, each taken back

std::string reference_key(std::uint64_t world_seed) {
  return "learn_L " + std::to_string(world_seed) + " model";
}

struct LearnRun {
  double wall_ms = 0, cpu_ms = 0, rss_mb = 0, save_ms = 0, next_batch_ms = 0;
  std::string digest;
};

// One timed learn + publish over a pre-rendered world.
LearnRun learn_once(Rendered rendered, std::size_t threads, const std::string& model_path,
                    obs::Registry* registry, obs::Tracer* tracer, std::string* error) {
  const hoiho::geo::GeoDictionary& dict = hoiho::geo::builtin_dictionary();
  core::HoihoConfig config;
  config.threads = threads;
  config.registry = registry;
  config.tracer = tracer;
  const core::Hoiho hoiho(dict, config);
  ReplayStream stream(std::move(rendered), tracer);

  LearnRun run;
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  const core::HoihoResult result = hoiho.run_stream(stream);
  const std::uint64_t ts = now_ns();
  if (!core::save_model_to_file(model_path, model_conventions(result), dict, error))
    run.digest = "save-failed";
  const std::uint64_t t1 = now_ns();
  run.cpu_ms = (process_cpu_s() - cpu0) * 1e3;
  run.rss_mb = peak_rss_mb();
  run.wall_ms = static_cast<double>(t1 - t0) / 1e6;
  run.save_ms = static_cast<double>(t1 - ts) / 1e6;
  run.next_batch_ms = stream.next_batch_ms();
  record_span(tracer, "save_model", ts, t1, model_path);
  std::string bytes;
  if (run.digest.empty()) run.digest = read_file(model_path, &bytes) ? hex64(fnv64(bytes)) : "";
  return run;
}

// Batch-barrier accounting from the suffix spans of one traced run: idle
// worker time at the end of each batch, and the gap between batches.
struct PoolShape {
  double tail_idle_ms = 0, between_batches_ms = 0;
  std::size_t threads_seen = 0;
};

PoolShape pool_shape(const std::vector<obs::SpanRecord>& spans,
                     const std::unordered_map<std::string, std::size_t>& batch_of,
                     std::size_t batches, std::size_t threads) {
  struct Window {
    std::uint64_t start = UINT64_MAX, end = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> last_end;  // thread -> last end
  };
  std::vector<Window> windows(batches);
  std::set<std::uint32_t> thread_ids;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "suffix") continue;
    const auto it = batch_of.find(s.detail);
    if (it == batch_of.end()) continue;
    Window& w = windows[it->second];
    const std::uint64_t end = s.start_ns + s.dur_ns;
    w.start = std::min(w.start, s.start_ns);
    w.end = std::max(w.end, end);
    thread_ids.insert(s.thread);
    bool found = false;
    for (auto& [t, e] : w.last_end)
      if (t == s.thread) {
        e = std::max(e, end);
        found = true;
      }
    if (!found) w.last_end.emplace_back(s.thread, end);
  }
  PoolShape shape;
  shape.threads_seen = thread_ids.size();
  const std::size_t width = std::max(threads, thread_ids.size());
  const Window* prev = nullptr;
  for (const Window& w : windows) {
    if (w.end == 0) continue;
    double idle_ns = 0;
    for (const auto& [t, e] : w.last_end) idle_ns += static_cast<double>(w.end - e);
    // Workers that ran nothing in this batch idled through all of it.
    idle_ns += static_cast<double>(width - w.last_end.size()) * static_cast<double>(w.end - w.start);
    shape.tail_idle_ms += idle_ns / 1e6;
    if (prev != nullptr && w.start > prev->end)
      shape.between_batches_ms += static_cast<double>(w.start - prev->end) / 1e6;
    prev = &w;
  }
  return shape;
}

}  // namespace

Result run_learn(const Args& args) {
  const std::size_t threads = hardware_threads();
  const std::string model_path = args.workdir + "/model.ncb";
  Result res;

  // Each run cycles through kWorlds worlds of the pool, one per stratum,
  // picked by the seed, so that one world's few heavy Zipf-head suffixes do
  // not set the whole result. Reference digests: recorded, else learned
  // once at threads = 1.
  const std::uint64_t tr = now_ns();
  std::string error;
  std::mt19937_64 pick(args.seed);
  std::vector<sim::StreamingWorldConfig> worlds;
  std::vector<std::string> references;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    const std::uint64_t world_seed = kStrata[w][pick() % 4];
    worlds.push_back(learn_world(world_seed, args.tiny));
    const std::optional<std::string> recorded =
        args.tiny ? std::nullopt : recorded_reference(reference_key(world_seed));
    const std::string digest =
        recorded ? *recorded
                 : learn_once(render(worlds.back()), 1, args.workdir + "/reference.ncb", nullptr,
                              nullptr, &error)
                       .digest;
    references.push_back(digest);
    const std::string tag = "world_" + std::to_string(w);
    res.detail[tag + "_seed"] = std::to_string(world_seed);
    res.detail[tag + "_reference"] = digest + (recorded ? " (recorded)" : " (threads=1)");
  }
  if (args.faults.corrupt_digest) references[0][0] = references[0][0] == '0' ? '1' : '0';
  res.detail["reference_s"] = std::to_string(ms_since(tr) / 1e3);
  res.detail["threads"] = std::to_string(threads);

  struct Sample {
    double wall_ms = 0, cpu_ms = 0, steal_ticks = 0;
  };
  std::vector<double> setup_ms, traced_walls;
  std::vector<std::vector<Sample>> samples(kWorlds);  // untraced, per world
  std::map<std::string, std::vector<double>> layer;  // per traced run
  std::size_t hostnames = 0;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(args.seconds) * 1000000000ULL;
  const std::size_t min_runs = 2 * kWorlds;
  const std::size_t round = args.trace ? 2 * kWorlds : kWorlds;  // every world equally often
  for (std::size_t i = 0; i < min_runs || now_ns() < deadline || i % round != 0; ++i) {
    const std::size_t w = (i / (args.trace ? 2 : 1)) % kWorlds;
    const bool traced = args.trace && i % 2 == 1;
    const std::uint64_t ts = now_ns();
    Rendered rendered = render(worlds[w]);
    setup_ms.push_back(ms_since(ts));
    hostnames = rendered.hostnames;

    double fingerprint_ms = 0;
    std::unordered_map<std::string, std::size_t> batch_of;  // survives the move into the stream
    const std::size_t batches = rendered.batches.size();
    if (traced) {
      const std::uint64_t tf = now_ns();
      for (const io::SuffixBatch& b : rendered.batches)
        for (const hoiho::topo::SuffixGroup& g : b.groups) core::suffix_fingerprint(g, b.pings);
      fingerprint_ms = ms_since(tf);
      batch_of = rendered.batch_of;
    }

    obs::Registry registry;
    obs::Tracer tracer(kTracerCapacity);
    ++res.attempted;
    const double steal0 = host_steal_ticks();
    const LearnRun run = learn_once(std::move(rendered), threads, model_path,
                                    traced ? &registry : nullptr, traced ? &tracer : nullptr,
                                    &error);
    const double steal = host_steal_ticks() - steal0;
    if (run.digest != references[w])
      res.fail("learn run " + std::to_string(i) + ": model digest " + run.digest +
               " != reference " + references[w] + (error.empty() ? "" : " (" + error + ")"));
    if (!traced) {
      samples[w].push_back({run.wall_ms, run.cpu_ms, steal});
      continue;
    }
    traced_walls.push_back(run.wall_ms);
    if (tracer.dropped() != 0)
      res.fail("tracer dropped " + std::to_string(tracer.dropped()) + " spans");
    res.dropped_spans += tracer.dropped();
    std::vector<obs::SpanRecord> spans = tracer.spans();
    const StageSums st = stage_sums(spans);
    const PoolShape shape = pool_shape(spans, batch_of, batches, threads);
    const obs::Snapshot snap = registry.snapshot();
    const auto ratio = [](double num, double den) { return den <= 0 ? 0.0 : num / den; };
    const double hits = static_cast<double>(snap.value("consistency_cache_hits"));
    const double misses = static_cast<double>(snap.value("consistency_cache_misses"));
    const double programs = static_cast<double>(snap.value("rx_set_programs_run"));
    auto& L = layer;
    L["io.next_batch_ms"].push_back(run.next_batch_ms);
    L["core.suffix_busy_ms"].push_back(st.suffix_ms);
    L["core.suffix_p99_ms"].push_back(percentile(st.suffix_durations_ms, 99));
    L["core.suffix_count"].push_back(static_cast<double>(st.suffix_durations_ms.size()));
    L["util.pool.busy_frac"].push_back(
        ratio(st.suffix_ms, static_cast<double>(threads) * run.wall_ms));
    L["util.pool.tail_idle_ms"].push_back(shape.tail_idle_ms);
    L["core.between_batches_ms"].push_back(shape.between_batches_ms);
    L["util.pool.tasks_stolen"].push_back(static_cast<double>(snap.value("pool_tasks_stolen")));
    L["util.pool.steal_failures"].push_back(
        static_cast<double>(snap.value("pool_steal_failures")));
    L["core.tag_ms"].push_back(st.tag_ms);
    L["core.regex_gen_ms"].push_back(st.regex_gen_ms);
    L["core.eval_ms"].push_back(st.eval_ms);
    L["core.learn_ms"].push_back(st.learn_ms);
    L["core.unstaged_ms"].push_back(st.unstaged_ms());
    L["regex.programs_run"].push_back(programs);
    L["regex.hit_ratio"].push_back(ratio(static_cast<double>(snap.value("rx_set_hits")), programs));
    L["measure.cache_hit_ratio"].push_back(ratio(hits, hits + misses));
    L["measure.cache_misses"].push_back(misses);
    L["core.model_save_ms"].push_back(run.save_ms);
    L["core.fingerprint_ms"].push_back(fingerprint_ms);
    L["mem.peak_rss_mb"].push_back(run.rss_mb);
    res.spans = std::move(spans);
  }

  // The delta path, on the first world: a few 5% churn feeds, each applied
  // to the serving generation and taken back.
  std::vector<DeltaCycle> cycles;
  if (args.trace) {
    core::HoihoConfig config;
    config.threads = threads;
    DeltaRig rig;
    if (!make_delta_rig(worlds[0], args.seed + 1, kDeltaFeeds,
                        core::Hoiho(hoiho::geo::builtin_dictionary(), config), args.workdir, &rig,
                        &error)) {
      res.fail("delta set-up: " + error);
    } else {
      for (std::size_t i = 0; i < 2 * rig.feeds.size(); ++i) {
        DeltaCycle c;
        if (!run_delta_cycle(rig, i, config, nullptr, res, &c)) break;
        cycles.push_back(c);
      }
    }
  }

  // Quiet learns: those during which the host stole no more CPU time from
  // this machine than during the median learn. On a shared host a learn
  // slows while the hypervisor runs other tenants; leaving those out
  // measures the learner rather than them. A world with no quiet learn
  // keeps all of its learns. Timings per world, then averaged over the
  // worlds.
  std::vector<double> steals;
  for (const std::vector<Sample>& v : samples)
    for (const Sample& s : v) steals.push_back(s.steal_ticks);
  std::sort(steals.begin(), steals.end());
  const double quiet_steal = steals.empty() ? 0 : steals[(steals.size() - 1) / 2];
  double p50 = 0, tail = 0;
  std::size_t quiet_learns = 0;
  std::vector<double> cpus;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    std::vector<double> walls;
    for (const Sample& s : samples[w])
      if (s.steal_ticks <= quiet_steal) {
        walls.push_back(s.wall_ms);
        cpus.push_back(s.cpu_ms);
      }
    if (walls.empty())
      for (const Sample& s : samples[w]) walls.push_back(s.wall_ms);
    res.detail["world_" + std::to_string(w) + "_p50_ms"] = std::to_string(median(walls));
    p50 += median(walls) / kWorlds;
    tail += percentile(walls, 90) / kWorlds;
    quiet_learns += walls.size();
  }
  res.detail["runs"] = std::to_string(res.attempted);
  res.detail["hostnames"] = std::to_string(hostnames);
  res.detail["quiet_learns"] = std::to_string(quiet_learns);
  if (!args.trace) {
    res.add("setup_s", median(setup_ms) / 1e3);
    res.add("op_p50_ms", p50);
    res.add("op_tail_ms", tail);
    res.add("op_cpu_ms", median(cpus));
    return res;
  }
  for (const auto& [name, values] : layer) res.add(name, median(values));
  add_delta_metrics(cycles, res);
  res.detail["delta_cycles"] = std::to_string(cycles.size());
  const double untraced = p50;
  res.add("learn.hostnames_per_s",
          untraced <= 0 ? 0 : static_cast<double>(hostnames) / (untraced / 1e3));
  res.add("obs.trace_overhead_frac", untraced <= 0 ? 0 : median(traced_walls) / untraced - 1);
  return res;
}

std::string learn_references(const std::string& workdir) {
  std::string out;
  std::string error;
  for (std::size_t p = 0; p < kPoolWorlds; ++p) {
    const std::uint64_t world_seed = kPoolFirstSeed + p;
    const LearnRun ref = learn_once(render(learn_world(world_seed, false)), 1,
                                    workdir + "/reference.ncb", nullptr, nullptr, &error);
    out += reference_key(world_seed) + " " + ref.digest + "\n";
  }
  return out;
}

}  // namespace perfbench
