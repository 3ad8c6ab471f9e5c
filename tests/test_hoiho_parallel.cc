// Determinism of the parallel pipeline: Hoiho::run with threads=1 and
// threads=8 must produce identical HoihoResults on a multi-operator world.
// Equality is checked on an exhaustive textual dump of every field the
// pipeline emits.
#include <gtest/gtest.h>

#include <sstream>

#include "core/hoiho.h"
#include "sim/probing.h"

namespace hoiho::core {
namespace {

void dump_eval(std::ostream& os, const NcEvaluation& ev) {
  os << "counts tp=" << ev.counts.tp << " fp=" << ev.counts.fp << " fn=" << ev.counts.fn
     << " unk=" << ev.counts.unk << " none=" << ev.counts.none << "\n";
  os << "unique:";
  for (const std::string& code : ev.unique_tp_codes) os << " " << code;
  os << "\n";
  for (std::size_t i = 0; i < ev.regex_unique_tp.size(); ++i) {
    os << "regex" << i << ":";
    for (const std::string& code : ev.regex_unique_tp[i]) os << " " << code;
    os << "\n";
  }
  for (const HostnameEval& h : ev.per_hostname) {
    os << "  " << to_string(h.outcome) << " rx=" << h.regex_index << " code=" << h.code
       << " cc=" << h.cc << " st=" << h.st << " best=" << h.best_location
       << " learned=" << h.via_learned << " locs=";
    for (geo::LocationId id : h.locations) os << id << ",";
    os << "\n";
  }
}

// Every semantic field of the result (fingerprints are compared separately
// so their determinism is asserted on its own).
std::string dump(const HoihoResult& result) {
  std::ostringstream os;
  for (const SuffixResult& sr : result.suffixes) {
    os << "== " << sr.suffix << " hostnames=" << sr.hostname_count
       << " tagged=" << sr.tagged_count << " cls=" << to_string(sr.cls) << "\n";
    for (const TaggedHostname& th : sr.tagged) {
      os << " host " << th.ref.router << " " << th.ref.hostname->full << "\n";
      for (const ApparentHint& h : th.hints) {
        os << "  hint " << to_string(h.role) << " " << h.code << " [" << h.begin << ","
           << h.end << ") split=" << h.split_clli << " locs=";
        for (geo::LocationId id : h.locations) os << id << ",";
        for (const HintAnnotation& a : h.annotations)
          os << " ann=" << to_string(a.role) << ":" << a.code << "[" << a.begin << "," << a.end
             << ")";
        os << "\n";
      }
    }
    os << "nc " << sr.nc.suffix << " regexes=";
    for (const GeoRegex& gr : sr.nc.regexes) os << gr.to_string() << "(" << gr.plan.to_string()
                                                << ") ";
    os << "\n";
    for (const auto& [key, loc] : sr.nc.learned)
      os << " learned-map " << static_cast<int>(key.first) << ":" << key.second << "->" << loc
         << "\n";
    for (const LearnedHint& lh : sr.learned)
      os << " learned " << static_cast<int>(lh.type) << ":" << lh.code << "->" << lh.location
         << " tp=" << lh.tp << " fp=" << lh.fp << " existing=" << lh.existing_tp << "\n";
    dump_eval(os, sr.eval);
  }
  return os.str();
}

std::string dump_fingerprints(const HoihoResult& result) {
  std::ostringstream os;
  for (const SuffixResult& sr : result.suffixes)
    os << sr.suffix << " fp=" << sr.fingerprint << "\n";
  return os.str();
}

struct Fixture {
  sim::World world;
  measure::Measurements meas;

  Fixture() {
    sim::WorldConfig config;
    config.seed = 4242;
    config.operators = 16;
    config.geohint_scheme_rate = 0.9;
    config.hostname_rate = 0.85;
    world = sim::generate_world(geo::builtin_dictionary(), config);
    meas = sim::probe_pings(world, {});
  }

  HoihoResult run(std::size_t threads) const {
    HoihoConfig config;
    config.threads = threads;
    return Hoiho(geo::builtin_dictionary(), config).run(world.topology, meas);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(HoihoParallel, OneAndEightThreadsProduceIdenticalResults) {
  const HoihoResult seq = fixture().run(1);
  const HoihoResult par = fixture().run(8);
  ASSERT_EQ(seq.suffixes.size(), par.suffixes.size());
  EXPECT_EQ(dump(seq), dump(par));
  // Content fingerprints are input-derived, so scheduling cannot move them.
  EXPECT_EQ(dump_fingerprints(seq), dump_fingerprints(par));
  EXPECT_EQ(seq.geolocated_router_count(), par.geolocated_router_count());
}

TEST(HoihoParallel, RepeatedParallelRunsAreStable) {
  const HoihoResult a = fixture().run(8);
  const HoihoResult b = fixture().run(8);
  EXPECT_EQ(dump(a), dump(b));
  EXPECT_EQ(dump_fingerprints(a), dump_fingerprints(b));
}

TEST(HoihoParallel, HardwareThreadsKnob) {
  // threads=0 resolves to hardware concurrency and still matches sequential.
  const HoihoResult hw = fixture().run(0);
  const HoihoResult seq = fixture().run(1);
  EXPECT_EQ(dump(hw), dump(seq));
}

}  // namespace
}  // namespace hoiho::core
