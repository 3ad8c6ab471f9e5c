// google-benchmark microbenchmarks for the learning pipeline stages on a
// fixed single-suffix workload: stage 2 tagging, phase-1 generation, NC
// evaluation, and the full per-suffix run.
#include <benchmark/benchmark.h>

#include "core/hoiho.h"
#include "sim/probing.h"

namespace {

using namespace hoiho;

struct Workload {
  sim::World world;
  measure::Measurements meas;
  topo::SuffixGroup group;
  std::vector<core::TaggedHostname> tagged;

  Workload() {
    const geo::GeoDictionary& dict = geo::builtin_dictionary();
    world.dict = &dict;
    world.vps = sim::make_vps(dict, 100);
    sim::OperatorSpec op;
    op.suffix = "bench.net";
    op.scheme.hint_role = core::Role::kIata;
    op.scheme.labels = {{sim::Part::iface(), sim::Part::dash(), sim::Part::num()},
                        {sim::Part::role(), sim::Part::num()},
                        {sim::Part::geo(), sim::Part::num()}};
    for (geo::LocationId id = 0; id < dict.size(); ++id)
      if (!dict.codes(id).iata.empty()) op.footprint.push_back(id);
    op.router_count = 120;
    util::Rng rng(42);
    sim::add_operator(world, op, 1.0, 0.0, rng);
    meas = sim::probe_pings(world, {});
    group = world.topology.group_by_suffix()[0];
    const core::ApparentTagger tagger(dict, meas, {});
    tagged = tagger.tag_all(group.hostnames);
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

void BM_Stage2Tagging(benchmark::State& state) {
  const Workload& w = workload();
  const core::ApparentTagger tagger(*w.world.dict, w.meas, {});
  for (auto _ : state) {
    auto tagged = tagger.tag_all(w.group.hostnames);
    benchmark::DoNotOptimize(tagged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.group.hostnames.size()));
}
BENCHMARK(BM_Stage2Tagging);

void BM_Phase1Generation(benchmark::State& state) {
  const Workload& w = workload();
  const core::RegexGenerator gen;
  for (auto _ : state) {
    auto regexes = gen.generate_base(std::span(w.tagged.data(), 48));
    benchmark::DoNotOptimize(regexes);
  }
}
BENCHMARK(BM_Phase1Generation);

void BM_NcEvaluation(benchmark::State& state) {
  const Workload& w = workload();
  const core::Evaluator evaluator(*w.world.dict, w.meas);
  const core::RegexGenerator gen;
  auto regexes = gen.generate_base(std::span(w.tagged.data(), 8));
  core::NamingConvention nc;
  nc.suffix = "bench.net";
  nc.regexes.push_back(regexes.front());
  for (auto _ : state) {
    auto eval = evaluator.evaluate(nc, w.tagged);
    benchmark::DoNotOptimize(eval);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(w.tagged.size()));
}
BENCHMARK(BM_NcEvaluation);

void BM_FullSuffixRun(benchmark::State& state) {
  const Workload& w = workload();
  const core::Hoiho hoiho(*w.world.dict);
  for (auto _ : state) {
    auto result = hoiho.run_suffix(w.group, w.meas);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSuffixRun);

}  // namespace

BENCHMARK_MAIN();
