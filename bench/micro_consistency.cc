// google-benchmark microbenchmarks for the RTT-consistency hot path: the
// raw O(#VPs) scan vs the memoized ConsistencyCache, and the closest-VP
// prefilter's effect on cold (first-touch) queries.
#include <benchmark/benchmark.h>

#include "measure/consistency_cache.h"
#include "sim/probing.h"

namespace {

using namespace hoiho;

constexpr std::size_t kRouters = 64;  // routers queried per pass

struct Workload {
  sim::World world;
  measure::Measurements meas;
  std::vector<geo::Coordinate> coords;  // per LocationId, the pipeline's input

  Workload() {
    const geo::GeoDictionary& dict = geo::builtin_dictionary();
    world.dict = &dict;
    world.vps = sim::make_vps(dict, 100);
    sim::OperatorSpec op;
    op.suffix = "bench.net";
    op.scheme.hint_role = core::Role::kIata;
    op.scheme.labels = {{sim::Part::geo(), sim::Part::num()}};
    for (geo::LocationId id = 0; id < dict.size(); ++id)
      if (!dict.codes(id).iata.empty()) op.footprint.push_back(id);
    op.router_count = kRouters;
    util::Rng rng(7);
    sim::add_operator(world, op, 1.0, 0.0, rng);
    meas = sim::probe_pings(world, {});
    coords.reserve(dict.size());
    for (geo::LocationId id = 0; id < dict.size(); ++id)
      coords.push_back(dict.location(id).coord);
  }

  // One pass over every (router, location) pair — the shape of a stage-2
  // tagging sweep. Returns a checksum so the work cannot be elided.
  template <typename Consistent>
  std::size_t pass(Consistent&& consistent) const {
    std::size_t ok = 0;
    for (topo::RouterId r = 0; r < kRouters; ++r)
      for (geo::LocationId id = 0; id < coords.size(); ++id)
        if (consistent(r, id)) ++ok;
    return ok;
  }

  std::int64_t pass_queries() const {
    return static_cast<std::int64_t>(kRouters) * static_cast<std::int64_t>(coords.size());
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

// The uncached baseline: every query scans all VPs.
void BM_ConsistencyUncached(benchmark::State& state) {
  const Workload& w = workload();
  for (auto _ : state) {
    const std::size_t ok = w.pass([&](topo::RouterId r, geo::LocationId id) {
      return measure::rtt_consistent(w.meas.pings, w.meas.vps, r, w.coords[id], 0.0);
    });
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * w.pass_queries());
}
BENCHMARK(BM_ConsistencyUncached);

// Cold cache: every query is a miss; measures memoization overhead plus the
// prefilter's ability to settle misses with one haversine.
void BM_ConsistencyCacheCold(benchmark::State& state) {
  const Workload& w = workload();
  for (auto _ : state) {
    measure::ConsistencyCache cache(w.meas, w.coords.size(), 0.0);
    const std::size_t ok = w.pass([&](topo::RouterId r, geo::LocationId id) {
      return cache.consistent(r, id, w.coords[id]);
    });
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * w.pass_queries());
}
BENCHMARK(BM_ConsistencyCacheCold);

// Warm cache: the steady state of stage-3 evaluation, where the same
// (router, location) pairs are re-tested for every candidate NC.
void BM_ConsistencyCacheWarm(benchmark::State& state) {
  const Workload& w = workload();
  measure::ConsistencyCache cache(w.meas, w.coords.size(), 0.0);
  w.pass([&](topo::RouterId r, geo::LocationId id) {  // warm every cell
    return cache.consistent(r, id, w.coords[id]);
  });
  for (auto _ : state) {
    const std::size_t ok = w.pass([&](topo::RouterId r, geo::LocationId id) {
      return cache.consistent(r, id, w.coords[id]);
    });
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * w.pass_queries());
}
BENCHMARK(BM_ConsistencyCacheWarm);

}  // namespace

BENCHMARK_MAIN();
