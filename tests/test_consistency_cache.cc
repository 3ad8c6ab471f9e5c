// Unit tests for measure/consistency_cache.h: hit/miss accounting, slack
// keying, prefilter soundness (verdicts identical to the uncached scan),
// and the bypass paths.
#include <gtest/gtest.h>

#include "measure/consistency_cache.h"
#include "sim/probing.h"

namespace hoiho::measure {
namespace {

const geo::Coordinate kDc{38.91, -77.04};       // Washington DC
const geo::Coordinate kAshburn{39.04, -77.49};  // ~35 km from DC
const geo::Coordinate kNashua{42.77, -71.47};   // ~620 km from DC
const geo::Coordinate kLondon{51.51, -0.13};

Measurements one_vp_setup(double rtt_ms) {
  Measurements meas({VantagePoint{"was", "us", kDc}}, 1);
  meas.pings.record(0, 0, rtt_ms);
  return meas;
}

TEST(ConsistencyCache, FirstQueryMissesSecondHits) {
  const Measurements meas = one_vp_setup(1.0);
  ConsistencyCache cache(meas, 4);
  EXPECT_TRUE(cache.consistent(0, 2, kAshburn));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_TRUE(cache.consistent(0, 2, kAshburn));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(ConsistencyCache, CachesNegativeVerdicts) {
  const Measurements meas = one_vp_setup(3.0);  // Nashua needs ~6.2 ms
  ConsistencyCache cache(meas, 4);
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ConsistencyCache, DistinctLocationsAreDistinctCells) {
  const Measurements meas = one_vp_setup(3.0);
  ConsistencyCache cache(meas, 4);
  EXPECT_TRUE(cache.consistent(0, 0, kAshburn));
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));
  EXPECT_TRUE(cache.consistent(0, 0, kAshburn));
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ConsistencyCache, MismatchedSlackBypassesTable) {
  const Measurements meas = one_vp_setup(3.0);
  ConsistencyCache cache(meas, 4, /*slack_ms=*/0.0);
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));  // miss at slack 0
  // Slack 5 makes Nashua feasible; this must not read the slack-0 cell.
  EXPECT_TRUE(cache.consistent(0, 1, kNashua, 5.0));
  EXPECT_EQ(cache.stats().bypasses, 1u);
  // ...and must not have overwritten it either.
  EXPECT_FALSE(cache.consistent(0, 1, kNashua));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ConsistencyCache, MismatchedGridIsIgnoredNotTrusted) {
  const Measurements meas = one_vp_setup(3.0);
  const std::vector<geo::Coordinate> coords = {kAshburn, kNashua};
  // A grid built for a different (two-VP) campaign: its cells mean nothing
  // for `meas`, so the cache must fall back to lazy per-location haversines
  // rather than read garbage expected RTTs.
  const std::vector<VantagePoint> other_vps = {VantagePoint{"was", "us", kDc},
                                               VantagePoint{"lhr", "uk", kLondon}};
  const ExpectedRttGrid grid(coords, other_vps);
  ConsistencyCache with(meas, 2, 0.0, &grid);
  ConsistencyCache without(meas, 2, 0.0, nullptr);
  EXPECT_TRUE(with.consistent(0, 0, kAshburn));
  EXPECT_FALSE(with.consistent(0, 1, kNashua));
  EXPECT_EQ(with.consistent(0, 0, kAshburn), without.consistent(0, 0, kAshburn));
  EXPECT_EQ(with.consistent(0, 1, kNashua), without.consistent(0, 1, kNashua));
}

TEST(ConsistencyCache, OutOfRangeIdsBypass) {
  const Measurements meas = one_vp_setup(1.0);
  ConsistencyCache cache(meas, 4);
  // Location id beyond the dictionary size and router beyond the matrix.
  EXPECT_TRUE(cache.consistent(0, 9, kAshburn));
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ConsistencyCache, InvalidCoordinateIsCachedFalse) {
  const Measurements meas = one_vp_setup(1.0);
  ConsistencyCache cache(meas, 4);
  EXPECT_FALSE(cache.consistent(0, 3, geo::Coordinate::invalid()));
  EXPECT_FALSE(cache.consistent(0, 3, geo::Coordinate::invalid()));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ConsistencyCache, UnmeasuredRouterVacuouslyConsistent) {
  Measurements meas({VantagePoint{"was", "us", kDc}}, 2);
  meas.pings.record(0, 0, 1.0);  // router 1 has no samples
  ConsistencyCache cache(meas, 4);
  EXPECT_TRUE(cache.consistent(1, 0, kLondon));
  EXPECT_EQ(cache.stats().prefilter_rejects, 0u);
}

TEST(ConsistencyCache, PrefilterRejectsFarCandidates) {
  const Measurements meas = one_vp_setup(1.0);  // feasible radius ~100 km
  ConsistencyCache cache(meas, 4);
  EXPECT_FALSE(cache.consistent(0, 0, kLondon));
  EXPECT_EQ(cache.stats().prefilter_rejects, 1u);
  EXPECT_TRUE(cache.consistent(0, 1, kAshburn));  // near: full scan, no reject
  EXPECT_EQ(cache.stats().prefilter_rejects, 1u);
}

TEST(ConsistencyCache, VerdictsMatchUncachedScanOnSimWorld) {
  // Property check over a realistic multi-VP campaign: for every (router,
  // location) pair, cached verdicts (prefiltered, and also backed by the
  // shared expected-RTT grid the pipeline builds) must equal the raw
  // rtt_consistent() scan.
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig wc;
  wc.seed = 5;
  wc.operators = 4;
  const sim::World world = sim::generate_world(dict, wc);
  const Measurements meas = sim::probe_pings(world, {});

  std::vector<geo::Coordinate> coords(dict.size());
  for (geo::LocationId id = 0; id < dict.size(); ++id) coords[id] = dict.location(id).coord;
  const ExpectedRttGrid grid(coords, meas.vps);
  ConsistencyCache with(meas, dict.size(), 0.0);
  ConsistencyCache gridded(meas, dict.size(), 0.0, &grid);
  const std::size_t routers = std::min<std::size_t>(meas.pings.router_count(), 40);
  for (topo::RouterId r = 0; r < routers; ++r) {
    for (geo::LocationId id = 0; id < dict.size(); ++id) {
      const geo::Coordinate& coord = dict.location(id).coord;
      const bool expected = rtt_consistent(meas.pings, meas.vps, r, coord, 0.0);
      ASSERT_EQ(with.consistent(r, id, coord), expected) << "r=" << r << " loc=" << id;
      ASSERT_EQ(gridded.consistent(r, id, coord), expected) << "r=" << r << " loc=" << id;
      // Second pass must hit and agree.
      ASSERT_EQ(with.consistent(r, id, coord), expected);
    }
  }
  EXPECT_GT(with.stats().prefilter_rejects, 0u);
  EXPECT_GT(with.stats().hits, 0u);
}

}  // namespace
}  // namespace hoiho::measure
