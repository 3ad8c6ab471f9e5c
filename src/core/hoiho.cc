#include "core/hoiho.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/delta.h"
#include "core/ncb.h"
#include "io/checkpoint.h"
#include "util/hash.h"
#include "util/sysinfo.h"
#include "util/thread_pool.h"

namespace hoiho::core {

std::size_t HoihoResult::geolocated_router_count() const {
  std::vector<topo::RouterId> routers;
  for (const SuffixResult& sr : suffixes) {
    if (!sr.usable()) continue;
    for (std::size_t i = 0; i < sr.eval.per_hostname.size(); ++i) {
      if (sr.eval.per_hostname[i].outcome == Outcome::kTP)
        routers.push_back(sr.tagged[i].ref.router);
    }
  }
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
  return routers.size();
}

std::size_t HoihoResult::count(NcClass c) const {
  std::size_t n = 0;
  for (const SuffixResult& sr : suffixes)
    if (sr.has_nc() && sr.cls == c) ++n;
  return n;
}

// Registry handles for the pipeline counters, resolved once per run so the
// per-suffix hot path only pays relaxed adds. All handles live in the
// config's registry and stay valid for its lifetime.
struct Hoiho::PipelineMetrics {
  obs::Counter suffixes, suffixes_skipped, suffixes_usable;
  obs::Counter hostnames, tagged_hostnames;
  obs::Counter candidates_generated, ncs_built, learned_hints;
  // Fed by the stage spans (obs::Span's µs sink), tracer or not.
  struct StageUs {
    obs::Counter tag, regex_gen, eval, learn;
  } stage_us;
  obs::Counter cache_hits, cache_misses, cache_prefilter_rejects, cache_bypasses;
  obs::Counter rx_subjects, rx_candidates, rx_programs_run, rx_hits, rx_programs_compiled;
  obs::Counter budget_exhausted;
  obs::Counter pool_worker_stalled;
  obs::Counter stream_batches;
  obs::Counter checkpoint_batches_committed, checkpoint_batches_resumed;
  obs::Counter checkpoint_results_resumed, checkpoint_commit_failures, checkpoint_discarded;
  obs::Counter model_save_failures;
  obs::Counter delta_dirty, delta_reused, delta_added, delta_removed, delta_relearn_us;
  obs::Gauge grid_cells;
  obs::Gauge pool_tasks_executed;
  obs::Gauge peak_rss_bytes;
  obs::Histogram suffix_ns;

  explicit PipelineMetrics(obs::Registry& r)
      : suffixes(r.counter("pipeline_suffixes")),
        suffixes_skipped(r.counter("pipeline_suffixes_skipped")),
        suffixes_usable(r.counter("pipeline_suffixes_usable")),
        hostnames(r.counter("pipeline_hostnames")),
        tagged_hostnames(r.counter("pipeline_tagged_hostnames")),
        candidates_generated(r.counter("pipeline_candidates_generated")),
        ncs_built(r.counter("pipeline_ncs_built")),
        learned_hints(r.counter("pipeline_learned_hints")),
        stage_us{r.counter("pipeline_stage_us{stage=\"tag\"}"),
                 r.counter("pipeline_stage_us{stage=\"regex_gen\"}"),
                 r.counter("pipeline_stage_us{stage=\"eval\"}"),
                 r.counter("pipeline_stage_us{stage=\"learn\"}")},
        cache_hits(r.counter("consistency_cache_hits")),
        cache_misses(r.counter("consistency_cache_misses")),
        cache_prefilter_rejects(r.counter("consistency_cache_prefilter_rejects")),
        cache_bypasses(r.counter("consistency_cache_bypasses")),
        rx_subjects(r.counter("rx_set_subjects")),
        rx_candidates(r.counter("rx_set_candidates")),
        rx_programs_run(r.counter("rx_set_programs_run")),
        rx_hits(r.counter("rx_set_hits")),
        rx_programs_compiled(r.counter("rx_programs_compiled")),
        budget_exhausted(r.counter("pipeline_budget_exhausted")),
        pool_worker_stalled(r.counter("pool_worker_stalled")),
        stream_batches(r.counter("pipeline_stream_batches")),
        checkpoint_batches_committed(r.counter("checkpoint_batches_committed")),
        checkpoint_batches_resumed(r.counter("checkpoint_batches_resumed")),
        checkpoint_results_resumed(r.counter("checkpoint_results_resumed")),
        checkpoint_commit_failures(r.counter("checkpoint_commit_failures")),
        checkpoint_discarded(r.counter("checkpoint_discarded")),
        model_save_failures(r.counter("pipeline_model_save_failures")),
        delta_dirty(r.counter("delta_suffixes_dirty")),
        delta_reused(r.counter("delta_suffixes_reused")),
        delta_added(r.counter("delta_suffixes_added")),
        delta_removed(r.counter("delta_suffixes_removed")),
        delta_relearn_us(r.counter("delta_relearn_us")),
        grid_cells(r.gauge("pipeline_expected_rtt_grid_cells")),
        pool_tasks_executed(r.gauge("pipeline_pool_tasks_executed")),
        peak_rss_bytes(r.gauge("pipeline_peak_rss_bytes")),
        suffix_ns(r.histogram("pipeline_suffix_ns")) {}

  void note_peak_rss() {
    peak_rss_bytes.set(
        std::max(peak_rss_bytes.load(), static_cast<std::int64_t>(util::peak_rss_bytes())));
  }
};

// The learner's pool for one run. learn_groups starts it on first use;
// run_stream keeps one across all its batches.
struct Hoiho::Workers {
  std::optional<util::WorkerPool> pool;
};

namespace {

// Dictionaries x VP sets above this many cells (locations x VPs) skip the
// eager grid build and the suffix caches memoize expected RTTs lazily per
// location: a 10k-location CSV dictionary against 1k VPs would be 10M
// haversines and 80 MB up front.
constexpr std::size_t kMaxGridCells = 4u << 20;

// Drops a result's per-hostname payloads, which point into the batch that
// owns the hostnames; aggregate counts, the NC, learned hints and the class
// survive. Keeps streamed and chained-delta results safe and small.
void compact(SuffixResult& sr) {
  std::vector<TaggedHostname>().swap(sr.tagged);
  std::vector<HostnameEval>().swap(sr.eval.per_hostname);
}

}  // namespace

std::shared_ptr<const measure::ExpectedRttGrid> Hoiho::expected_rtt_grid(
    const measure::Measurements& meas) const {
  if (meas.vps.empty() || dict_.size() * meas.vps.size() > kMaxGridCells) return nullptr;
  GridCache& gc = *grid_cache_;
  const std::scoped_lock lock(gc.mu);
  const auto same_vps = [&] {
    if (gc.vp_coords.size() != meas.vps.size()) return false;
    for (std::size_t i = 0; i < gc.vp_coords.size(); ++i)
      if (!(gc.vp_coords[i] == meas.vps[i].coord)) return false;
    return true;
  };
  if (gc.grid == nullptr || !same_vps()) {
    std::vector<geo::Coordinate> coords(dict_.size());
    for (std::size_t id = 0; id < coords.size(); ++id)
      coords[id] = dict_.location(static_cast<geo::LocationId>(id)).coord;
    gc.grid = std::make_shared<measure::ExpectedRttGrid>(coords, meas.vps);
    gc.vp_coords.clear();
    for (const measure::VantagePoint& vp : meas.vps) gc.vp_coords.push_back(vp.coord);
  }
  return gc.grid;
}

SuffixResult Hoiho::run_suffix(const topo::SuffixGroup& group,
                               const measure::Measurements& meas) const {
  SuffixResult result = run_suffix_instrumented(group, meas, nullptr, nullptr);
  result.fingerprint = suffix_fingerprint(group, meas);
  return result;
}

SuffixResult Hoiho::run_suffix_instrumented(const topo::SuffixGroup& group,
                                            const measure::Measurements& meas,
                                            PipelineMetrics* pm, obs::Tracer* tracer) const {
  const std::uint64_t t0 = obs::Tracer::now_ns();
  obs::Span span(tracer, "suffix", group.suffix);
  span.set_work(group.hostnames.size());

  // One cache per suffix run, shared by stages 2-4. The cache is used from
  // this thread only; cross-suffix parallelism gives each worker its own
  // cache. The expected-RTT grid behind it IS shared across workers
  // (immutable once built).
  const std::shared_ptr<const measure::ExpectedRttGrid> grid = expected_rtt_grid(meas);
  measure::ConsistencyCache cache(meas, dict_.size(), config_.apparent.slack_ms, grid.get());
  SuffixResult result = run_suffix_impl(group, meas, cache, pm, tracer);

  if (pm != nullptr) {
    pm->suffixes.inc();
    pm->hostnames.add(result.hostname_count);
    pm->tagged_hostnames.add(result.tagged_count);
    if (result.usable()) pm->suffixes_usable.inc();
    pm->learned_hints.add(result.learned.size());
    pm->budget_exhausted.add(result.eval.counts.budget_exhausted);
    const measure::ConsistencyCache::Stats& cs = cache.stats();
    pm->cache_hits.add(cs.hits);
    pm->cache_misses.add(cs.misses);
    pm->cache_prefilter_rejects.add(cs.prefilter_rejects);
    pm->cache_bypasses.add(cs.bypasses);
    pm->suffix_ns.observe(static_cast<double>(obs::Tracer::now_ns() - t0));
  }
  return result;
}

SuffixResult Hoiho::run_suffix_impl(const topo::SuffixGroup& group,
                                    const measure::Measurements& meas,
                                    measure::ConsistencyCache& cache, PipelineMetrics* pm,
                                    obs::Tracer* tracer) const {
  SuffixResult result;
  result.suffix = group.suffix;
  result.hostname_count = group.hostnames.size();
  const PipelineMetrics::StageUs stage_us =
      pm != nullptr ? pm->stage_us : PipelineMetrics::StageUs{};

  // Stage 2: tag apparent geohints.
  {
    obs::Span span(tracer, "tag", group.suffix, stage_us.tag);
    span.set_work(group.hostnames.size());
    const ApparentTagger tagger(dict_, meas, config_.apparent, &cache);
    result.tagged = tagger.tag_all(group.hostnames);
  }
  for (const TaggedHostname& th : result.tagged)
    if (th.has_hint()) ++result.tagged_count;
  if (result.tagged_count < config_.min_tagged_hostnames) {
    if (pm != nullptr) pm->suffixes_skipped.inc();
    return result;
  }

  Evaluator evaluator(dict_, meas, config_.apparent.slack_ms, &cache);
  // Fold the evaluator's set-matching work into the registry on every exit
  // path (the evaluator dies with this frame).
  struct EvalObsFold {
    PipelineMetrics* pm;
    const Evaluator& ev;
    ~EvalObsFold() {
      if (pm == nullptr) return;
      const rx::MatchStats& ms = ev.match_stats();
      pm->rx_subjects.add(ms.subjects);
      pm->rx_candidates.add(ms.candidates);
      pm->rx_programs_run.add(ms.programs_run);
      pm->rx_hits.add(ms.hits);
      pm->rx_programs_compiled.add(ev.compiled_program_count());
    }
  } eval_fold{pm, evaluator};

  // Stage 3 phase 1: base regexes, seeded from a bounded prefix of the
  // tagged hostnames.
  const RegexGenerator generator(config_.gen);
  std::vector<GeoRegex> candidates;
  {
    obs::Span span(tracer, "regex_gen", group.suffix, stage_us.regex_gen);
    std::vector<TaggedHostname> seeds;
    for (const TaggedHostname& th : result.tagged) {
      if (!th.has_hint()) continue;
      seeds.push_back(th);
      if (seeds.size() >= config_.max_seed_hostnames) break;
    }
    candidates = generator.generate_base(seeds);
    span.set_work(candidates.size());
    if (pm != nullptr) pm->candidates_generated.add(candidates.size());
  }
  if (candidates.empty()) return result;

  // Rank base candidates by ATP and prune — the whole set is scored in one
  // SetMatcher pass per hostname. The survivors' evaluations are kept and
  // handed to the NC builder, which then only scores the regexes that
  // merge/embed add below them.
  std::vector<NcEvaluation> base_evals;
  {
    obs::Span span(tracer, "eval", group.suffix, stage_us.eval);
    span.set_work(candidates.size());
    std::vector<NcEvaluation> evals = evaluator.evaluate_candidates(candidates, result.tagged);
    struct Ranked {
      GeoRegex gr;
      NcEvaluation eval;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (evals[i].counts.tp == 0) continue;
      ranked.push_back(Ranked{std::move(candidates[i]), std::move(evals[i])});
    }
    std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
      return a.eval.counts.atp() > b.eval.counts.atp();
    });
    if (ranked.size() > config_.max_candidates) ranked.resize(config_.max_candidates);
    candidates.clear();
    base_evals.reserve(ranked.size());
    for (Ranked& r : ranked) {
      candidates.push_back(std::move(r.gr));
      base_evals.push_back(std::move(r.eval));
    }
  }
  if (candidates.empty()) return result;

  {
    obs::Span span(tracer, "regex_gen", group.suffix, stage_us.regex_gen);
    // Stage 3 phase 2: merge similar regexes.
    {
      const std::vector<GeoRegex> merged = generator.merge(candidates);
      candidates.insert(candidates.end(), merged.begin(), merged.end());
    }
    // Stage 3 phase 3: embed character classes.
    {
      std::vector<GeoRegex> refined;
      for (const GeoRegex& gr : candidates) {
        if (auto r = generator.embed_classes(gr, result.tagged)) refined.push_back(std::move(*r));
      }
      candidates.insert(candidates.end(), refined.begin(), refined.end());
    }
    dedup_regexes(candidates);
  }

  // Stage 3 phase 4: build candidate NCs.
  const NcBuilder builder(evaluator, config_.sets);
  std::vector<NcBuilder::Candidate> ncs;
  {
    obs::Span span(tracer, "eval", group.suffix, stage_us.eval);
    // The pruned base regexes sit (deduplicated, in rank order) at the front
    // of `candidates`: merge/embed only append, and dedup keeps first
    // occurrences, so base_evals still lines up with the prefix.
    ncs = builder.build(group.suffix, std::move(candidates), result.tagged,
                        std::move(base_evals));
    span.set_work(ncs.size());
    if (pm != nullptr) pm->ncs_built.add(ncs.size());
  }
  if (ncs.empty()) return result;

  // Stage 4: learn operator geohints for the top candidates, then
  // re-evaluate them (learning can reorder the ranking).
  std::vector<std::vector<LearnedHint>> learned_per(ncs.size());
  if (config_.enable_learning) {
    obs::Span span(tracer, "learn", group.suffix, stage_us.learn);
    const GeohintLearner learner(evaluator, config_.learn);
    const std::size_t n = std::min(ncs.size(), config_.learn_top_n);
    for (std::size_t i = 0; i < n; ++i) {
      learned_per[i] = learner.learn(ncs[i].nc, result.tagged, ncs[i].eval);
      span.add_work(learned_per[i].size());
      if (!learned_per[i].empty()) ncs[i].eval = evaluator.evaluate(ncs[i].nc, result.tagged);
    }
    std::vector<std::size_t> order(ncs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ncs[a].eval.counts.atp() > ncs[b].eval.counts.atp();
    });
    std::vector<NcBuilder::Candidate> ncs2;
    std::vector<std::vector<LearnedHint>> learned2;
    for (std::size_t idx : order) {
      ncs2.push_back(std::move(ncs[idx]));
      learned2.push_back(std::move(learned_per[idx]));
    }
    ncs = std::move(ncs2);
    learned_per = std::move(learned2);
  }

  // Stage 5: select and classify.
  const NcBuilder::Candidate* best = select_best(ncs, config_.rank);
  if (best == nullptr) return result;
  const std::size_t best_idx = static_cast<std::size_t>(best - ncs.data());
  result.nc = best->nc;
  result.eval = best->eval;
  result.learned = learned_per[best_idx];
  result.cls = classify(result.eval, config_.rank);
  return result;
}

Hoiho::Learned Hoiho::learn_groups(std::span<const topo::SuffixGroup> groups,
                                   const measure::Measurements& meas, PipelineMetrics* pm,
                                   obs::Tracer* tracer, Workers& workers, const PriorRun* reuse,
                                   const std::function<void()>& while_learning) const {
  Learned out{std::vector<SuffixResult>(groups.size()), std::vector<char>(groups.size(), 0)};
  if (pm != nullptr && !groups.empty()) {
    // Build the shared grid up front (the workers would race to the same
    // build anyway) so its size is on record. A run's groups share one VP
    // set, so later calls reuse the grid.
    if (const auto grid = expected_rtt_grid(meas))
      pm->grid_cells.set(static_cast<std::int64_t>(grid->location_count() * grid->vp_count()));
  }

  // Slot i: the stored result for this exact content when `reuse` holds
  // one (the fingerprint covers every input of a per-suffix learn), else a
  // fresh learn stamped with its fingerprint. Every slot is written by one
  // task only.
  const auto fill = [&](std::size_t i) {
    const std::uint64_t fp = suffix_fingerprint(groups[i], meas);
    if (const SuffixResult* hit = reuse != nullptr ? reuse->find(fp, groups[i].suffix) : nullptr) {
      out.results[i] = *hit;
      out.reused[i] = 1;
      if (pm != nullptr) pm->delta_reused.inc();
      return;
    }
    out.results[i] = run_suffix_instrumented(groups[i], meas, pm, tracer);
    out.results[i].fingerprint = fp;
  };

  if (!workers.pool) {
    // Never oversubscribe: suffix learning is CPU-bound, so workers beyond
    // the core count only add preemption (the seed bench's cached_4t used
    // to lose to cached_1t on 1-core hosts). Without work to overlap, more
    // workers than groups would only idle; run_stream, which renders its
    // next batch meanwhile, starts the pool even for one group and keeps
    // it. Output is threads-invariant, so the clamp is unobservable.
    std::size_t threads =
        std::min(util::resolve_threads(config_.threads), util::resolve_threads(0));
    if (!while_learning) threads = std::min(threads, groups.size());
    if (threads > 1) workers.pool.emplace(threads);
  }
  if (!workers.pool) {
    for (std::size_t i = 0; i < groups.size(); ++i) fill(i);
    if (while_learning) while_learning();
    return out;
  }

  // Suffix runs are independent: each reads only the shared const inputs
  // (dictionary, groups, measurements, reuse source) and writes its own
  // slot, so results land by group index and match the sequential path.
  //
  // Suffix sizes are heavily skewed (one consumer ISP next to dozens of
  // small operators), so the groups are seeded cost-descending into the
  // pool's one FIFO: whichever worker frees up first takes the largest
  // suffix left, and the small tail fills in behind the head.
  util::WorkerPool& pool = *workers.pool;
  const std::uint64_t executed_before = pool.executed();
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return groups[a].hostnames.size() > groups[b].hostnames.size();
  });
  std::vector<std::function<void()>> tasks;
  tasks.reserve(order.size());
  for (std::size_t idx : order) tasks.push_back([&fill, idx] { fill(idx); });
  pool.seed(std::move(tasks));
  if (while_learning) while_learning();
  if (config_.worker_stall_ms > 0) {
    // Watchdog: surface workers stuck on one suffix (one episode per task)
    // instead of blocking silently.
    const std::chrono::milliseconds limit(config_.worker_stall_ms);
    while (!pool.wait_idle_for(limit)) {
      const std::size_t stalled =
          pool.scan_stalled(static_cast<std::uint64_t>(config_.worker_stall_ms));
      if (pm != nullptr) pm->pool_worker_stalled.add(stalled);
    }
  } else {
    pool.wait_idle();
  }
  if (pm != nullptr)
    pm->pool_tasks_executed.add(static_cast<std::int64_t>(pool.executed() - executed_before));
  return out;
}

HoihoResult Hoiho::run(const topo::Topology& topo, const measure::Measurements& meas) const {
  std::optional<PipelineMetrics> metrics;
  if (config_.registry != nullptr) metrics.emplace(*config_.registry);
  PipelineMetrics* pm = metrics ? &*metrics : nullptr;
  obs::Tracer* tracer = config_.tracer;

  obs::Span run_span(tracer, "run");
  const std::vector<topo::SuffixGroup> groups = topo.group_by_suffix();
  run_span.set_work(groups.size());
  Workers workers;
  std::vector<SuffixResult> slots = learn_groups(groups, meas, pm, tracer, workers).results;
  if (pm != nullptr) pm->note_peak_rss();

  HoihoResult result;
  for (SuffixResult& sr : slots)
    if (sr.hostname_count > 0) result.suffixes.push_back(std::move(sr));
  return result;
}

HoihoResult Hoiho::run_stream(io::SuffixStream& stream) const {
  std::optional<PipelineMetrics> metrics;
  if (config_.registry != nullptr) metrics.emplace(*config_.registry);
  PipelineMetrics* pm = metrics ? &*metrics : nullptr;
  obs::Tracer* tracer = config_.tracer;

  obs::Span run_span(tracer, "run_stream");
  HoihoResult result;
  Workers workers;  // one pool for the whole stream
  std::size_t total_suffixes = 0;
  bool truncated = false;  // a commit failure cut the run short mid-stream
  std::optional<io::SuffixBatch> batch = stream.next_batch();

  // Durability (DESIGN.md §14): the checkpoint is a store of learned
  // results, valid only under the key of everything that shapes them
  // besides a suffix's own inputs — the learner config, the dictionary's
  // content and the campaign's VP set (every batch shares the first's). A
  // store under another key is discarded whole; under this key its
  // results are learn_groups' reuse source, matched per suffix by
  // fingerprint, so a killed run resumes where it died and a new snapshot
  // of the world relearns only the suffixes that changed.
  std::optional<io::Checkpoint> ckpt;
  PriorRun store;
  if (!config_.checkpoint_dir.empty() && batch) {
    const std::uint64_t key = util::Fnv1a()
                                  .mix(learn_signature(config_, dict_.size()))
                                  .mix(dict_.content_hash())
                                  .mix(vp_set_hash(batch->pings.vps))
                                  .value();
    ckpt.emplace(config_.checkpoint_dir, key, dict_);
    io::Checkpoint::Resume resume = ckpt->open();
    if (pm != nullptr) {
      if (resume.discarded) pm->checkpoint_discarded.inc();
      pm->checkpoint_batches_resumed.add(resume.batches);
      pm->checkpoint_results_resumed.add(resume.results.size());
    }
    store.results = std::move(resume.results);
    store.reindex();
  }

  while (batch) {
    total_suffixes += batch->groups.size();
    // Double buffering: this thread renders batch k+1 while the workers
    // learn batch k. The stream is only ever touched from this thread; the
    // workers only touch the current batch.
    std::optional<io::SuffixBatch> next;
    Learned learned = learn_groups(batch->groups, batch->pings, pm, tracer, workers,
                                   ckpt ? &store : nullptr, [&] { next = stream.next_batch(); });

    const std::size_t batch_begin = result.suffixes.size();
    std::vector<SuffixResult> commit;  // what this batch learned (reused results are stored)
    for (std::size_t i = 0; i < learned.results.size(); ++i) {
      SuffixResult& sr = learned.results[i];
      if (sr.hostname_count == 0) continue;
      compact(sr);
      if (ckpt && !learned.reused[i]) commit.push_back(sr);
      result.suffixes.push_back(std::move(sr));
    }
    if (!commit.empty()) {
      std::string err;
      if (ckpt->commit_batch(commit, &err)) {
        if (pm != nullptr) pm->checkpoint_batches_committed.inc();
      } else {
        // Durability-first: drop the uncommitted batch and stop — exactly
        // the state a crash at this boundary leaves, so a rerun reuses
        // everything committed and relearns only from here.
        if (pm != nullptr) pm->checkpoint_commit_failures.inc();
        result.suffixes.resize(batch_begin);
        truncated = true;
        break;
      }
    }
    if (pm != nullptr) {
      pm->stream_batches.inc();
      pm->note_peak_rss();
    }
    batch = std::move(next);
  }
  run_span.set_work(total_suffixes);

  // Emit the serving model straight from the learner (extension picks the
  // format, ".ncb" → binary) — no convert step between learning and
  // serving. A truncated run holds a prefix of the stream, not the model
  // the caller asked for, so it does not overwrite a previous good file.
  if (!config_.model_out.empty() && !truncated) {
    std::vector<StoredConvention> stored;
    stored.reserve(result.suffixes.size());
    for (const SuffixResult& sr : result.suffixes)
      if (sr.has_nc()) stored.push_back(StoredConvention{sr.nc, sr.cls});
    // Canonical (suffix-sorted) order: what makes delta application
    // byte-identical to a from-scratch save (core/delta.h).
    sort_conventions(stored);
    std::string err;
    if (!save_model_to_file(config_.model_out, stored, dict_, &err)) {
      if (pm != nullptr) pm->model_save_failures.inc();
    }
  }

  if (config_.registry != nullptr) stream.report().publish(*config_.registry, "stream");
  return result;
}

DeltaRunReport Hoiho::run_delta(const WorldDelta& world, const PriorRun& prior) const {
  DeltaRunReport report;
  std::optional<PipelineMetrics> metrics;
  if (config_.registry != nullptr) metrics.emplace(*config_.registry);
  PipelineMetrics* pm = metrics ? &*metrics : nullptr;
  obs::Tracer* tracer = config_.tracer;

  obs::Span run_span(tracer, "run_delta");
  const std::vector<topo::SuffixGroup>& groups = world.changed.groups;
  const measure::Measurements& meas = world.changed.pings;
  run_span.set_work(groups.size());

  // Compatibility gates: a prior run under a different learner config or a
  // different VP campaign cannot seed reuse — the expected-RTT geometry
  // moved under every suffix, so the caller must fall back to a full run.
  // The dictionary enters as its size only: PriorRun::capture's callers,
  // perfbench among them, hand it the size, not the dictionary.
  const std::uint64_t sig = learn_signature(config_, dict_.size());
  if (prior.learn_sig != 0 && prior.learn_sig != sig) {
    report.error = "prior run learner-config signature mismatch (full relearn required)";
    return report;
  }
  if (!groups.empty() && prior.vp_hash != 0 &&
      vp_set_hash(meas.vps) != prior.vp_hash) {
    report.error = "vantage-point set changed since the prior run (full relearn required)";
    return report;
  }
  const std::unordered_set<std::string_view> removed(world.removed.begin(), world.removed.end());
  for (const topo::SuffixGroup& g : groups)
    if (removed.contains(g.suffix)) {
      report.error = "suffix '" + g.suffix + "' both changed and removed";
      return report;
    }

  // Every incoming group goes through run()'s fan-out with the prior as
  // the reuse source: an unchanged fingerprint reuses the prior result
  // (and all its ConsistencyCache/eval work) verbatim, the rest relearn on
  // the shared expected-RTT grid.
  const auto t_relearn = std::chrono::steady_clock::now();
  Workers workers;
  Learned fresh = learn_groups(groups, meas, pm, tracer, workers, &prior);
  report.relearn_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t_relearn)
          .count();

  // Merge: prior order with relearned results swapped in and removals
  // dropped; brand-new suffixes append in group order. Reused groups keep
  // their prior entry. Relearned results are compacted like run_stream's
  // so chained PriorRuns stay bounded.
  std::unordered_map<std::string_view, std::size_t> fresh_by_suffix;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    if (fresh.reused[k])
      ++report.reused;
    else
      fresh_by_suffix[groups[k].suffix] = k;
  }
  report.dirty = groups.size() - report.reused;

  report.delta.base_generation = prior.generation;
  std::vector<char> fresh_used = fresh.reused;
  report.result.suffixes.reserve(prior.results.size() + groups.size());
  for (const SuffixResult& prev : prior.results) {
    if (removed.contains(prev.suffix)) {
      ++report.removed;
      if (prev.has_nc()) report.delta.removes.push_back(prev.suffix);
      continue;
    }
    const auto fit = fresh_by_suffix.find(prev.suffix);
    if (fit != fresh_by_suffix.end()) {
      SuffixResult& nr = fresh.results[fit->second];
      fresh_used[fit->second] = 1;
      if (nr.hostname_count == 0) {  // run() drops empty groups; so does the merge
        ++report.removed;
        if (prev.has_nc()) report.delta.removes.push_back(prev.suffix);
        continue;
      }
      if (nr.has_nc())
        report.delta.upserts.push_back(StoredConvention{nr.nc, nr.cls});
      else if (prev.has_nc())
        report.delta.removes.push_back(prev.suffix);  // lost its convention
      compact(nr);
      report.result.suffixes.push_back(std::move(nr));
      continue;
    }
    report.result.suffixes.push_back(prev);  // untouched or reused
  }
  for (std::size_t k = 0; k < groups.size(); ++k) {
    if (fresh_used[k]) continue;
    SuffixResult& nr = fresh.results[k];
    if (nr.hostname_count == 0) continue;
    ++report.added;
    if (nr.has_nc()) report.delta.upserts.push_back(StoredConvention{nr.nc, nr.cls});
    compact(nr);
    report.result.suffixes.push_back(std::move(nr));
  }
  // Canonical order (core/delta.h): merge-by-suffix application stays
  // byte-identical to a from-scratch save.
  sort_conventions(report.delta.upserts);
  std::sort(report.delta.removes.begin(), report.delta.removes.end());

  if (pm != nullptr) {
    pm->delta_dirty.add(report.dirty);
    pm->delta_added.add(report.added);
    pm->delta_removed.add(report.removed);
    pm->delta_relearn_us.add(static_cast<std::uint64_t>(report.relearn_wall_ms * 1e3));
    pm->note_peak_rss();
  }
  return report;
}

}  // namespace hoiho::core
