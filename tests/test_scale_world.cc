// Streaming-world and streaming-pipeline invariants (DESIGN.md §12):
//
//   * batch-size invariance — the emitted hostname stream is identical no
//     matter how suffixes are grouped into batches (per-suffix rngs);
//   * Zipf skew — the head suffix dwarfs the tail, sizes follow the plan;
//   * run_stream ≡ run — streaming the world through Hoiho produces the
//     same per-suffix learnings as materializing it as one batch;
//   * threads=1 ≡ threads=8 — scheduling does not perturb results;
//   * the pool's stall watchdog counts stalls without perturbing them.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/hoiho.h"
#include "sim/streaming.h"
#include "util/thread_pool.h"

namespace hoiho::core {
namespace {

sim::StreamingWorldConfig small_config() {
  sim::StreamingWorldConfig config;
  config.seed = 77;
  config.suffixes = 40;
  config.target_hostnames = 1200;
  config.max_hostnames_per_suffix = 256;
  config.vp_count = 16;
  config.batch_hostname_budget = 300;
  config.traits.geohint_scheme_rate = 0.8;
  config.traits.hostname_rate = 0.85;
  return config;
}

// The full hostname stream as one string: every suffix in order, every
// hostname (with its batch-local router id re-based to a per-suffix
// ordinal so the dump is batch-independent).
std::string dump_stream(sim::StreamingWorld& world) {
  std::ostringstream os;
  while (auto batch = world.next_batch()) {
    for (const topo::SuffixGroup& g : batch->groups) {
      os << "== " << g.suffix << "\n";
      const topo::RouterId base = g.hostnames.empty() ? 0 : g.hostnames.front().router;
      for (const topo::HostnameRef& ref : g.hostnames)
        os << (ref.router - base) << " " << ref.hostname->full << "\n";
    }
  }
  return os.str();
}

TEST(StreamingWorld, StreamIsInvariantAcrossBatchSizes) {
  sim::StreamingWorldConfig config = small_config();
  std::string baseline;
  for (const std::size_t budget : {std::size_t{1}, std::size_t{300}, std::size_t{100000}}) {
    config.batch_hostname_budget = budget;
    sim::StreamingWorld world(geo::builtin_dictionary(), config);
    const std::string dump = dump_stream(world);
    EXPECT_FALSE(dump.empty());
    if (baseline.empty()) {
      baseline = dump;
    } else {
      EXPECT_EQ(baseline, dump) << "batch budget " << budget << " changed the stream";
    }
  }
}

TEST(StreamingWorld, ResetReproducesTheStream) {
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  const std::string first = dump_stream(world);
  EXPECT_EQ(world.next_batch(), std::nullopt);  // exhausted
  world.reset();
  EXPECT_EQ(world.next_suffix_index(), 0u);
  EXPECT_EQ(first, dump_stream(world));
}

TEST(StreamingWorld, SeedChangesTheStream) {
  sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld a(geo::builtin_dictionary(), config);
  config.seed = 78;
  sim::StreamingWorld b(geo::builtin_dictionary(), config);
  EXPECT_NE(dump_stream(a), dump_stream(b));
}

TEST(StreamingWorld, ZipfPlanIsSkewedAndBounded) {
  const sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  // Head suffix gets the most routers; tail gets the floor; monotone-ish
  // decay overall (exact monotonicity can break at the clamp boundary).
  EXPECT_GT(world.planned_routers(0), world.planned_routers(config.suffixes - 1));
  EXPECT_GE(world.planned_routers(config.suffixes - 1), config.min_routers_per_suffix);
  std::size_t total = 0;
  for (std::size_t k = 0; k < config.suffixes; ++k) {
    EXPECT_LE(world.planned_routers(k) * 2, config.max_hostnames_per_suffix * 3)
        << "suffix " << k << " exceeds the per-suffix clamp";
    total += world.planned_routers(k);
  }
  // The plan lands in the right order of magnitude of the hostname target
  // (hostname_rate * interfaces-per-router converts routers to hostnames).
  EXPECT_GT(total, config.target_hostnames / 8);
  EXPECT_LT(total, config.target_hostnames * 4);
}

TEST(StreamingWorld, AccountingCountsRenderedHostnames) {
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  std::size_t streamed = 0;
  while (auto batch = world.next_batch()) streamed += batch->hostname_count();
  EXPECT_EQ(world.report().records, streamed);
  EXPECT_GE(world.report().lines, world.report().records);  // lines include unnamed interfaces
  EXPECT_TRUE(world.report().ok());
}

// The compact per-suffix outcome a streamed run retains (tagged /
// per_hostname payloads are cleared by design), sorted by suffix so batch
// order and group_by_suffix order compare equal.
std::string dump_compact(const HoihoResult& result) {
  std::map<std::string, std::string> by_suffix;
  for (const SuffixResult& sr : result.suffixes) {
    std::ostringstream os;
    os << "hostnames=" << sr.hostname_count << " tagged=" << sr.tagged_count
       << " cls=" << to_string(sr.cls) << " tp=" << sr.eval.counts.tp
       << " fp=" << sr.eval.counts.fp << " fn=" << sr.eval.counts.fn
       << " unk=" << sr.eval.counts.unk << " none=" << sr.eval.counts.none << "\n";
    for (const GeoRegex& gr : sr.nc.regexes)
      os << "  rx " << gr.to_string() << " (" << gr.plan.to_string() << ")\n";
    for (const LearnedHint& lh : sr.learned)
      os << "  learned " << static_cast<int>(lh.type) << ":" << lh.code << "->" << lh.location
         << "\n";
    by_suffix[sr.suffix] = os.str();
  }
  std::ostringstream os;
  for (const auto& [suffix, body] : by_suffix) os << "== " << suffix << "\n" << body;
  return os.str();
}

HoihoResult run_streamed(std::size_t threads, std::size_t budget) {
  sim::StreamingWorldConfig config = small_config();
  config.batch_hostname_budget = budget;
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  HoihoConfig hc;
  hc.threads = threads;
  return Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
}

TEST(RunStream, MatchesBatchRunOnTheSameWorld) {
  // One giant batch materializes the whole world; running that batch through
  // the classic path must learn the same conventions as streaming it.
  sim::StreamingWorldConfig config = small_config();
  config.batch_hostname_budget = 1u << 20;
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  auto batch = world.next_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(world.next_batch(), std::nullopt) << "expected a single batch";

  HoihoConfig hc;
  hc.threads = 1;
  const Hoiho hoiho(geo::builtin_dictionary(), hc);
  const HoihoResult batched = hoiho.run(batch->topology, batch->pings);
  const HoihoResult streamed = run_streamed(1, 300);
  EXPECT_EQ(dump_compact(batched), dump_compact(streamed));
}

TEST(RunStream, OneAndEightThreadsProduceIdenticalResults) {
  const HoihoResult seq = run_streamed(1, 300);
  const HoihoResult par = run_streamed(8, 300);
  ASSERT_EQ(seq.suffixes.size(), par.suffixes.size());
  // Suffixes arrive in stream order on both paths; compare the full
  // sequence, not just the sorted dump.
  for (std::size_t i = 0; i < seq.suffixes.size(); ++i)
    EXPECT_EQ(seq.suffixes[i].suffix, par.suffixes[i].suffix) << "order diverged at " << i;
  EXPECT_EQ(dump_compact(seq), dump_compact(par));
}

TEST(RunStream, CompactsPerHostnamePayloads) {
  const HoihoResult streamed = run_streamed(2, 300);
  ASSERT_FALSE(streamed.suffixes.empty());
  for (const SuffixResult& sr : streamed.suffixes) {
    EXPECT_TRUE(sr.tagged.empty());
    EXPECT_TRUE(sr.eval.per_hostname.empty());
    EXPECT_GT(sr.hostname_count, 0u);  // aggregate counts survive compaction
  }
}

TEST(RunStream, RegistryCarriesStreamIngestAndPoolMetrics) {
  sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  obs::Registry registry;
  obs::Tracer tracer;
  HoihoConfig hc;
  hc.threads = 4;
  hc.registry = &registry;
  hc.tracer = &tracer;
  Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  const obs::Snapshot metrics = registry.snapshot();
  EXPECT_GT(metrics.value("pipeline_stream_batches"), 1u);
  EXPECT_GT(metrics.value("pipeline_suffixes"), 0u);
  EXPECT_EQ(metrics.value("ingest_records{source=\"stream\"}"), world.report().records);
  // The pool executed every seeded task (only when the host has the cores
  // to spin it up — workers are clamped to hardware).
  if (util::resolve_threads(0) > 1) {
    const obs::Snapshot::Entry* executed = metrics.find("pipeline_pool_tasks_executed");
    ASSERT_NE(executed, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(executed->gauge), metrics.value("pipeline_suffixes"));
  }
  // One run_stream span roots the streamed learn.
  std::size_t roots = 0;
  for (const obs::SpanRecord& s : tracer.spans()) roots += s.name == "run_stream" ? 1 : 0;
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// The pool watchdog: at a 1 ms threshold, the M-tier world's large
// suffixes keep a worker on one task past it, so the stall counter moves —
// and counting stalls must not change what is learned.
TEST(RunStream, WorkerWatchdogCountsStallsWithoutChangingResults) {
  if (util::resolve_threads(0) < 2) GTEST_SKIP() << "one core: the clamp learns inline, no pool";
  sim::StreamingWorldConfig config;  // pipeline_e2e --scale=M
  config.seed = 99;
  config.traits.geohint_scheme_rate = 0.8;
  config.traits.hostname_rate = 0.8;
  config.suffixes = 200;
  config.target_hostnames = 20000;
  config.max_hostnames_per_suffix = 2048;
  config.vp_count = 32;
  config.batch_hostname_budget = 4096;
  const auto learn = [&](int stall_ms, obs::Registry* registry) {
    sim::StreamingWorld world(geo::builtin_dictionary(), config);
    HoihoConfig hc;
    hc.threads = 4;
    hc.worker_stall_ms = stall_ms;
    hc.registry = registry;
    return Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
  };
  obs::Registry registry;
  const HoihoResult watched = learn(1, &registry);
  const HoihoResult plain = learn(0, nullptr);
  EXPECT_GE(registry.snapshot().value("pool_worker_stalled"), 1u);
  ASSERT_EQ(watched.suffixes.size(), plain.suffixes.size());
  for (std::size_t i = 0; i < plain.suffixes.size(); ++i)
    EXPECT_EQ(watched.suffixes[i].suffix, plain.suffixes[i].suffix) << "order diverged at " << i;
  EXPECT_EQ(dump_compact(watched), dump_compact(plain));
}

}  // namespace
}  // namespace hoiho::core
