// Unit and integration tests for src/fuse/: candidate gathering with
// dictionary ambiguity expansion, RTT feasibility margins, deterministic
// ranking (byte-identical across thread counts — run under TSan in CI), the
// grid size-cap fallback, the lenient loaders, and the audit decision
// kernel with exact counter accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "fuse/audit.h"
#include "geo/dictionary.h"
#include "regex/parser.h"

namespace hoiho::fuse {
namespace {

geo::LocationId find_city(const geo::GeoDictionary& dict, std::string_view city,
                          std::string_view country, std::string_view state = "") {
  for (geo::LocationId id :
       dict.lookup(geo::HintType::kCityName, geo::squash_place_name(city))) {
    if (!geo::same_country(dict.location(id).country, country)) continue;
    if (!state.empty() && dict.location(id).state != state) continue;
    return id;
  }
  return geo::kInvalidLocation;
}

// A city-name convention over test.net: the hostname's second label is a
// squashed city name ("melbourne" matches both VIC, AU and FL, US).
core::Geolocator city_geolocator(const geo::GeoDictionary& dict,
                                 core::NcClass cls = core::NcClass::kGood) {
  core::Geolocator g(dict);
  core::NamingConvention nc;
  nc.suffix = "test.net";
  core::GeoRegex gr;
  gr.regex = *rx::parse("^.+\\.([a-z]+)\\.test\\.net$");
  gr.plan.roles = {core::Role::kCityName};
  nc.regexes.push_back(std::move(gr));
  g.add(std::move(nc), cls);
  return g;
}

// Measurements with one VP sitting exactly at `vp_at`, one sample for
// router 0 of `rtt_ms`.
measure::Measurements pin_router(const geo::Coordinate& vp_at, double rtt_ms) {
  measure::Measurements meas({measure::VantagePoint{"vp0", "xx", vp_at}}, 1);
  meas.pings.record(0, 0, rtt_ms);
  return meas;
}

// --- candidate gathering -----------------------------------------------------

TEST(Candidates, AmbiguousCityExpandsToAllSiblings) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const CandidateSet set = gather_candidates(g, "cr1.melbourne.test.net");
  ASSERT_TRUE(set.matched);
  EXPECT_EQ(set.code, "melbourne");
  ASSERT_GE(set.candidates.size(), 2u) << "builtin atlas has at least two Melbournes";
  bool saw_au = false, saw_fl = false;
  for (const Candidate& c : set.candidates) {
    if (c.location == find_city(dict, "Melbourne", "au")) saw_au = true;
    if (c.location == find_city(dict, "Melbourne", "us", "fl")) saw_fl = true;
    EXPECT_EQ(c.source, Source::kDictionary);
    EXPECT_FALSE(c.rtt_checked);
  }
  EXPECT_TRUE(saw_au);
  EXPECT_TRUE(saw_fl);
  // The hostname-only answer is one of the candidates (the tiebreak winner).
  EXPECT_NE(set.hostname_best, geo::kInvalidLocation);
}

TEST(Candidates, ClaimedCoordinateAppendsLast) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::Coordinate claim{48.85, 2.35};
  const CandidateSet set = gather_candidates(g, "cr1.melbourne.test.net", claim);
  ASSERT_GE(set.candidates.size(), 3u);
  const Candidate& last = set.candidates.back();
  EXPECT_EQ(last.source, Source::kClaimed);
  EXPECT_EQ(last.location, geo::kInvalidLocation);
  EXPECT_DOUBLE_EQ(last.coord.lat, 48.85);
}

TEST(Candidates, UnmatchedHostnameStillYieldsClaimed) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::Coordinate claim{48.85, 2.35};
  const CandidateSet set = gather_candidates(g, "cr1.unknown.example.org", claim);
  EXPECT_FALSE(set.matched);
  ASSERT_EQ(set.candidates.size(), 1u);
  EXPECT_EQ(set.candidates[0].source, Source::kClaimed);
  EXPECT_EQ(set.hostname_best, geo::kInvalidLocation);
}

// --- RTT filter --------------------------------------------------------------

TEST(RttFilter, RefutesTheFarSibling) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  CandidateSet set = gather_candidates(g, "cr1.melbourne.test.net");
  const geo::LocationId au = find_city(dict, "Melbourne", "au");

  // A VP in Melbourne AU measuring 2 ms pins the router there: the
  // speed-of-light bound from Melbourne FL (~15000 km away) is far larger.
  const measure::Measurements meas = pin_router(dict.location(au).coord, 2.0);
  const RttFilter filter(meas);
  const std::size_t infeasible = filter.apply(0, set.candidates);
  EXPECT_GE(infeasible, 1u);
  for (const Candidate& c : set.candidates) {
    EXPECT_TRUE(c.rtt_checked);
    if (c.location == au) {
      EXPECT_TRUE(c.feasible);
      EXPECT_GE(c.margin_ms, 0.0);
    } else {
      EXPECT_FALSE(c.feasible) << "sibling " << dict.location(c.location).city;
      EXPECT_LT(c.margin_ms, 0.0);
    }
  }
}

TEST(RttFilter, UnmeasuredRouterLeavesCandidatesUnchecked) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  CandidateSet set = gather_candidates(g, "cr1.melbourne.test.net");
  measure::Measurements meas({measure::VantagePoint{"vp0", "xx", {0, 0}}}, 2);
  const RttFilter filter(meas);
  EXPECT_EQ(filter.apply(1, set.candidates), 0u);  // router 1: no samples
  for (const Candidate& c : set.candidates) {
    EXPECT_FALSE(c.rtt_checked);
    EXPECT_TRUE(c.feasible);
  }
}

TEST(RttFilter, SlackRescuesABarelyInfeasibleCandidate) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  // Measure *less* than the physical minimum from a far VP: infeasible at
  // slack 0, feasible once the slack covers the deficit.
  const geo::Coordinate far{51.51, -0.13};  // London
  const double bound = geo::min_rtt_ms(dict.location(au).coord, far);
  const measure::Measurements meas = pin_router(far, bound - 3.0);

  CandidateSet strict_set = gather_candidates(g, "cr1.melbourne.test.net");
  const RttFilter strict(meas);
  strict.apply(0, strict_set.candidates);
  CandidateSet slack_set = gather_candidates(g, "cr1.melbourne.test.net");
  const RttFilter slacked(meas, nullptr, {.slack_ms = 5.0});
  slacked.apply(0, slack_set.candidates);

  for (std::size_t i = 0; i < strict_set.candidates.size(); ++i) {
    if (strict_set.candidates[i].location != au) continue;
    EXPECT_FALSE(strict_set.candidates[i].feasible);
    EXPECT_TRUE(slack_set.candidates[i].feasible);
  }
}

TEST(RttFilter, GridAndHaversineAgreeExactly) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const measure::Measurements meas = pin_router(dict.location(au).coord, 2.0);

  std::vector<geo::Coordinate> coords(dict.size());
  for (std::size_t id = 0; id < coords.size(); ++id)
    coords[id] = dict.location(static_cast<geo::LocationId>(id)).coord;
  const measure::ExpectedRttGrid grid(coords, meas.vps);

  CandidateSet with_grid = gather_candidates(g, "cr1.melbourne.test.net");
  CandidateSet without = gather_candidates(g, "cr1.melbourne.test.net");
  RttFilter(meas, &grid).apply(0, with_grid.candidates);
  RttFilter(meas, nullptr).apply(0, without.candidates);
  ASSERT_EQ(with_grid.candidates.size(), without.candidates.size());
  for (std::size_t i = 0; i < with_grid.candidates.size(); ++i) {
    EXPECT_EQ(with_grid.candidates[i].feasible, without.candidates[i].feasible);
    // Same doubles, not merely close: the grid stores the same haversine.
    EXPECT_EQ(with_grid.candidates[i].margin_ms, without.candidates[i].margin_ms);
  }
}

// --- FuseContext grid cap ----------------------------------------------------

TEST(FuseContext, GridCapFallsBackToHaversinesWithIdenticalVerdicts) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};

  const auto dense = FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0),
                                        dict, {}, /*max_grid_cells=*/1u << 20);
  const auto capped = FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0),
                                         dict, {}, /*max_grid_cells=*/1);
  EXPECT_NE(dense->grid(), nullptr);
  EXPECT_EQ(capped->grid(), nullptr);

  const FuseResult a = Fuser(g, dense.get()).fuse("cr1.melbourne.test.net");
  const FuseResult b = Fuser(g, capped.get()).fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(a.answered());
  ASSERT_TRUE(b.answered());
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].location, b.verdicts[i].location);
    EXPECT_EQ(a.verdicts[i].score, b.verdicts[i].score);
    EXPECT_EQ(a.verdicts[i].evidence, b.verdicts[i].evidence);
  }
}

// --- fusion end-to-end -------------------------------------------------------

TEST(Fuser, RttOverridesThePopulationTiebreak) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const geo::LocationId fl = find_city(dict, "Melbourne", "us", "fl");
  ASSERT_NE(au, geo::kInvalidLocation);
  ASSERT_NE(fl, geo::kInvalidLocation);

  // Hostname-only picks AU (facility + population tiebreak)...
  const auto hostname_only = g.locate("cr1.melbourne.test.net");
  ASSERT_TRUE(hostname_only.has_value());
  EXPECT_EQ(hostname_only->location, au);

  // ...but the router actually sits in Florida, and the RTTs say so.
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(fl).coord, 2.0), dict);
  const FuseResult fused = Fuser(g, ctx.get()).fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(fused.answered());
  EXPECT_TRUE(fused.rtt_constrained);
  EXPECT_EQ(fused.best().location, fl);
  EXPECT_TRUE(fused.best().feasible);
}

TEST(Fuser, AddressSubjectExtractsFromRouterHostname) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {
      {"192.0.2.1", 0, "cr1.melbourne.test.net"},
      {"cr1.melbourne.test.net", 0, ""},
  };
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);
  const FuseResult fused = Fuser(g, ctx.get()).fuse("192.0.2.1");
  ASSERT_TRUE(fused.answered());
  EXPECT_EQ(fused.set.code, "melbourne");
  EXPECT_EQ(fused.best().location, au);
}

TEST(Fuser, NullContextStillRanksOnExtractionAlone) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const FuseResult fused = Fuser(g).fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(fused.answered());
  EXPECT_FALSE(fused.rtt_constrained);
  for (const Verdict& v : fused.verdicts) EXPECT_FALSE(v.rtt_checked);
}

// --- ranking determinism -----------------------------------------------------

TEST(Ranker, ByteIdenticalAcrossEightThreads) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);
  const Fuser fuser(g, ctx.get());
  const geo::Coordinate claim{48.85, 2.35};

  const FuseResult reference = fuser.fuse("cr1.melbourne.test.net", claim);
  ASSERT_TRUE(reference.answered());

  constexpr int kThreads = 8, kReps = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const FuseResult r = fuser.fuse("cr1.melbourne.test.net", claim);
        if (r.verdicts.size() != reference.verdicts.size()) {
          ++mismatches[t];
          continue;
        }
        for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
          const Verdict& a = r.verdicts[i];
          const Verdict& b = reference.verdicts[i];
          if (a.location != b.location || a.score != b.score || a.source != b.source ||
              a.evidence != b.evidence)
            ++mismatches[t];
        }
      }
    });
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Ranker, InfeasibleCandidatesScoreBelowFeasibleOnes) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);
  const FuseResult fused = Fuser(g, ctx.get()).fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(fused.answered());
  const RankerConfig rc;
  for (const Verdict& v : fused.verdicts) {
    if (!v.feasible) {
      // rtt_score is 0: the ceiling is w_nc + w_pop.
      EXPECT_LE(v.score, rc.w_nc + rc.w_pop + 1e-12);
      EXPECT_LT(v.score, fused.best().score);
    }
  }
}

TEST(Ranker, PopulationPriorOverrideFlipsTheUncheckedTiebreak) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const geo::LocationId fl = find_city(dict, "Melbourne", "us", "fl");

  PopulationPrior prior;
  prior.set(fl, 90'000'000);  // absurd override: FL out-populates AU
  prior.set(au, 1'000);
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  // No RTT samples for router 0: measurements exist but say nothing, so the
  // prior is the only discriminating signal beyond nc_conf (equal here).
  measure::Measurements silent({measure::VantagePoint{"vp0", "xx", {0, 0}}}, 1);
  const auto ctx = FuseContext::build(subjects, std::move(silent), dict, std::move(prior));
  const FuseResult fused = Fuser(g, ctx.get()).fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(fused.answered());
  EXPECT_EQ(fused.best().location, fl);
}

// --- lenient loaders ---------------------------------------------------------

TEST(Loaders, SubjectsSkipBadRowsLeniently) {
  std::istringstream in(
      "# comment\n"
      "cr1.melbourne.test.net,0\n"
      "192.0.2.1,0,cr1.melbourne.test.net\n"
      "badrow\n"
      "x.test.net,notanumber\n"
      ",3\n"
      "y.test.net,2\n");
  io::LoadOptions opt;
  opt.lenient = true;
  io::LoadReport rep;
  const auto rows = load_subjects(in, opt, &rep);
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(rep.skipped_count("bad_fields"), 2u);  // "badrow" and empty subject
  EXPECT_EQ(rep.skipped_count("bad_number"), 1u);
  EXPECT_EQ((*rows)[1].hostname, "cr1.melbourne.test.net");
  EXPECT_EQ((*rows)[2].router, 2u);
}

TEST(Loaders, SubjectsStrictModeFailsOnFirstBadRow) {
  std::istringstream in("good.test.net,0\nbadrow\n");
  io::LoadReport rep;
  EXPECT_FALSE(load_subjects(in, {}, &rep).has_value());
  EXPECT_FALSE(rep.ok());
}

TEST(Loaders, FeedParsesAndSkips) {
  std::istringstream in(
      "host1.test.net,48.85,2.35\n"
      "host2.test.net,91.0,2.35\n"  // bad latitude
      "host3.test.net,nope,2.35\n"
      "host4.test.net,-33.87,151.21\n");
  io::LoadOptions opt;
  opt.lenient = true;
  io::LoadReport rep;
  const auto feed = load_feed(in, opt, &rep);
  ASSERT_TRUE(feed.has_value());
  EXPECT_EQ(feed->size(), 2u);
  EXPECT_DOUBLE_EQ((*feed)[1].claimed.lon, 151.21);
  EXPECT_GE(rep.skipped_total(), 2u);
}

TEST(Loaders, PopulationPriorResolvesByCityAndCountry) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const geo::LocationId fl = find_city(dict, "Melbourne", "us", "fl");
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  std::istringstream in(
      "Melbourne,fl,us,123456\n"
      "Melbourne,au,77777\n"
      "Nowhereville,zz,1\n"
      "Melbourne,au,99999999999999999999\n");  // past 2^64-1: not a number
  io::LoadOptions opt;
  opt.lenient = true;
  io::LoadReport rep;
  const auto prior = PopulationPrior::load(in, dict, opt, &rep);
  ASSERT_TRUE(prior.has_value());
  EXPECT_EQ(prior->population(dict, fl), 123456u);
  EXPECT_EQ(prior->population(dict, au), 77777u);
  EXPECT_GE(rep.skipped_count("unknown_place"), 1u);
  EXPECT_EQ(rep.skipped_count("bad_number"), 1u);
}

// --- audit -------------------------------------------------------------------

TEST(Audit, ClassifiesAgreeRefuteUnknown) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);
  const Auditor auditor(g, ctx.get());

  // Claiming the true location agrees.
  const AuditRow agree = auditor.audit("cr1.melbourne.test.net", dict.location(au).coord);
  EXPECT_EQ(agree.outcome, AuditOutcome::kAgree);
  EXPECT_LE(agree.nearest_km, 1.0);

  // Claiming the far sibling's city is RTT-infeasible: refuted.
  const geo::LocationId fl = find_city(dict, "Melbourne", "us", "fl");
  const AuditRow refute = auditor.audit("cr1.melbourne.test.net", dict.location(fl).coord);
  EXPECT_EQ(refute.outcome, AuditOutcome::kRefute);

  // A subject with no convention, no router, no measurements: unknown.
  const AuditRow unknown = auditor.audit("mystery.example.org", dict.location(au).coord);
  EXPECT_EQ(unknown.outcome, AuditOutcome::kUnknown);
}

TEST(Audit, FeedAccountingIsExactAndMirroredToRegistry) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const geo::LocationId fl = find_city(dict, "Melbourne", "us", "fl");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);

  obs::Registry registry;
  const Auditor auditor(g, ctx.get(), {}, &registry);
  const std::vector<FeedRow> feed = {
      {"cr1.melbourne.test.net", dict.location(au).coord},
      {"cr1.melbourne.test.net", dict.location(fl).coord},
      {"mystery.example.org", dict.location(au).coord},
      {"cr1.melbourne.test.net", dict.location(au).coord},
  };
  std::vector<AuditRow> rows;
  const AuditSummary summary = auditor.audit_feed(feed, &rows);
  EXPECT_EQ(summary.rows, 4u);
  EXPECT_EQ(summary.agree + summary.refute + summary.unknown, summary.rows);
  EXPECT_EQ(summary.agree, 2u);
  EXPECT_EQ(summary.refute, 1u);
  EXPECT_EQ(summary.unknown, 1u);
  ASSERT_EQ(rows.size(), 4u);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("audit_agree"), summary.agree);
  EXPECT_EQ(snap.value("audit_refute"), summary.refute);
  EXPECT_EQ(snap.value("audit_unknown"), summary.unknown);
}

TEST(Audit, FuseMetricsLandInRegistry) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = city_geolocator(dict);
  const geo::LocationId au = find_city(dict, "Melbourne", "au");
  const std::vector<SubjectRow> subjects = {{"cr1.melbourne.test.net", 0, ""}};
  const auto ctx =
      FuseContext::build(subjects, pin_router(dict.location(au).coord, 2.0), dict);

  obs::Registry registry;
  const Fuser fuser(g, ctx.get(), {}, FuseMetrics(registry));
  const FuseResult fused = fuser.fuse("cr1.melbourne.test.net");
  ASSERT_TRUE(fused.answered());

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("fuse_candidates"), fused.set.candidates.size());
  EXPECT_GE(snap.value("fuse_rtt_infeasible"), 1u);
  const obs::Snapshot::Entry* hist = snap.find("fuse_rank_score");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 1u);
}

}  // namespace
}  // namespace hoiho::fuse
