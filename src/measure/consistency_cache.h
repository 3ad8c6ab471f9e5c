// Memoization of rtt_consistent() verdicts (paper §5.2).
//
// The pipeline asks "is location L feasible for router R?" for the same
// (R, L) pair many times: stage-2 tagging, every candidate-NC evaluation in
// stage 3, and stage-4 learning all test the same routers against the same
// dictionary locations. Each test is an O(#VPs) haversine scan. This cache
// stores the verdict in a packed 2-bit cell (unknown / false / true) per
// (router, location) pair, with rows allocated lazily on a router's first
// query so a per-suffix cache only pays for the routers the suffix touches.
//
// On a miss the cache first applies a per-router prefilter: the VP with the
// smallest measured RTT bounds how far the router can be, so a candidate
// farther than that is rejected with a single haversine instead of a full
// scan. The prefilter evaluates exactly one term of rtt_consistent()'s
// conjunction with identical arithmetic, so verdicts are bit-identical to
// the uncached scan's.
//
// A cache is valid for one RttMatrix + VP set + slack value; queries with a
// different slack bypass the table and compute directly. Not thread-safe:
// the intended scope is one cache per suffix run, used by a single thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "measure/consistency.h"

namespace hoiho::measure {

// Dense speed-of-light RTT table over every (location, VP) pair. The
// haversines in rtt_consistent() depend only on the location and VP
// coordinates, never the router, so one grid serves every suffix cache built
// over the same dictionary and VP set — including concurrently: the grid is
// immutable after construction. Entries for invalid coordinates are NaN and
// are never read (the cache rejects invalid coordinates before scanning).
class ExpectedRttGrid {
 public:
  // `coords[id]` must be the coordinate of dictionary location `id`.
  ExpectedRttGrid(std::span<const geo::Coordinate> coords, std::span<const VantagePoint> vps);

  double at(geo::LocationId loc, VpId v) const { return rtts_[loc * vp_count_ + v]; }
  std::size_t location_count() const { return vp_count_ == 0 ? 0 : rtts_.size() / vp_count_; }
  std::size_t vp_count() const { return vp_count_; }

 private:
  std::size_t vp_count_;
  std::vector<double> rtts_;  // [loc * vp_count_ + v]
};

class ConsistencyCache {
 public:
  // `location_count` is the dictionary size (LocationIds must be < it).
  // `grid`, if non-null, supplies precomputed expected RTTs (it must cover
  // the same locations and VPs and outlive the cache; a mismatched grid is
  // ignored); without one, expected RTTs are memoized lazily per location.
  ConsistencyCache(const Measurements& meas, std::size_t location_count, double slack_ms = 0.0,
                   const ExpectedRttGrid* grid = nullptr);

  // Memoized rtt_consistent(meas.pings, meas.vps, r, coord, slack_ms).
  // `coord` must be the coordinate of dictionary location `loc`; callers are
  // expected to pass dict.location(loc).coord. A `slack_ms` different from
  // the cache's is computed directly without touching the table.
  bool consistent(topo::RouterId r, geo::LocationId loc, const geo::Coordinate& coord,
                  double slack_ms);
  bool consistent(topo::RouterId r, geo::LocationId loc, const geo::Coordinate& coord) {
    return consistent(r, loc, coord, slack_ms_);
  }

  double slack_ms() const { return slack_ms_; }

  struct Stats {
    std::uint64_t hits = 0;              // answered from the table
    std::uint64_t misses = 0;            // computed and stored
    std::uint64_t prefilter_rejects = 0;  // misses settled by the radius test
    std::uint64_t bypasses = 0;          // mismatched slack, computed uncached

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }

    Stats& operator+=(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      prefilter_rejects += o.prefilter_rejects;
      bypasses += o.bypasses;
      return *this;
    }
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const { return stats_; }

 private:
  enum Verdict : std::uint8_t { kUnknown = 0, kFalse = 2, kTrue = 3 };

  // Closest-VP bound for one router, computed on first query.
  struct RouterBound {
    bool computed = false;
    bool constrained = false;  // router has at least one RTT sample
    VpId vp = 0;               // VP with the minimum measured RTT
    double budget_ms = 0.0;    // that minimum RTT + slack
  };

  Verdict cell(topo::RouterId r, geo::LocationId loc) const;
  void set_cell(topo::RouterId r, geo::LocationId loc, bool verdict);
  const RouterBound& bound(topo::RouterId r);

  // Speed-of-light minimum RTT from VP `v` to `loc`: read from the shared
  // grid when one is attached, else memoized lazily per location. Verdicts
  // are unchanged either way — the same doubles are compared.
  double expected_rtt(geo::LocationId loc, const geo::Coordinate& coord, VpId v);

  const Measurements& meas_;
  double slack_ms_;
  std::size_t location_count_;
  const ExpectedRttGrid* grid_;
  std::vector<std::vector<std::uint8_t>> rows_;  // [router] -> packed 2-bit cells
  std::vector<RouterBound> bounds_;
  std::vector<std::vector<double>> loc_rtts_;  // [location] -> per-VP minimum RTT
  Stats stats_;
};

}  // namespace hoiho::measure
