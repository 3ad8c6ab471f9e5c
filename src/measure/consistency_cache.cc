#include "measure/consistency_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hoiho::measure {

ExpectedRttGrid::ExpectedRttGrid(std::span<const geo::Coordinate> coords,
                                 std::span<const VantagePoint> vps)
    : vp_count_(vps.size()) {
  rtts_.resize(coords.size() * vps.size(), std::numeric_limits<double>::quiet_NaN());
  double* out = rtts_.data();
  for (const geo::Coordinate& c : coords) {
    if (c.valid())
      for (const VantagePoint& vp : vps) *out++ = geo::min_rtt_ms(c, vp.coord);
    else
      out += vps.size();
  }
}

ConsistencyCache::ConsistencyCache(const Measurements& meas, std::size_t location_count,
                                   double slack_ms, const ExpectedRttGrid* grid)
    : meas_(meas),
      slack_ms_(slack_ms),
      location_count_(location_count),
      grid_(grid && grid->location_count() == location_count &&
                    grid->vp_count() == meas.vps.size()
                ? grid
                : nullptr),
      rows_(meas.pings.router_count()),
      bounds_(meas.pings.router_count()),
      loc_rtts_(grid_ ? 0 : location_count) {}

double ConsistencyCache::expected_rtt(geo::LocationId loc, const geo::Coordinate& coord,
                                      VpId v) {
  if (grid_) return grid_->at(loc, v);
  // Filled lazily, one cell at a time: a location rejected at its first
  // scanned VP pays exactly one haversine.
  std::vector<double>& rtts = loc_rtts_[loc];
  if (rtts.empty()) rtts.assign(meas_.vps.size(), std::numeric_limits<double>::quiet_NaN());
  double& x = rtts[v];
  if (std::isnan(x)) x = geo::min_rtt_ms(coord, meas_.vps[v].coord);
  return x;
}

ConsistencyCache::Verdict ConsistencyCache::cell(topo::RouterId r, geo::LocationId loc) const {
  const std::vector<std::uint8_t>& row = rows_[r];
  if (row.empty()) return kUnknown;
  return static_cast<Verdict>((row[loc / 4] >> ((loc % 4) * 2)) & 0x3u);
}

void ConsistencyCache::set_cell(topo::RouterId r, geo::LocationId loc, bool verdict) {
  std::vector<std::uint8_t>& row = rows_[r];
  if (row.empty()) row.resize((location_count_ + 3) / 4, 0);
  const std::uint8_t v = verdict ? kTrue : kFalse;
  std::uint8_t& byte = row[loc / 4];
  const unsigned shift = (loc % 4) * 2;
  byte = static_cast<std::uint8_t>((byte & ~(0x3u << shift)) | (v << shift));
}

const ConsistencyCache::RouterBound& ConsistencyCache::bound(topo::RouterId r) {
  RouterBound& b = bounds_[r];
  if (!b.computed) {
    b.computed = true;
    if (const auto closest = meas_.pings.closest_vp(r)) {
      b.constrained = true;
      b.vp = closest->first;
      b.budget_ms = closest->second + slack_ms_;
    }
  }
  return b;
}

bool ConsistencyCache::consistent(topo::RouterId r, geo::LocationId loc,
                                  const geo::Coordinate& coord, double slack_ms) {
  // A different slack, an out-of-range router (not covered by the matrix),
  // or an out-of-range location cannot use the table.
  if (slack_ms != slack_ms_ || r >= rows_.size() || loc >= location_count_) {
    ++stats_.bypasses;
    return rtt_consistent(meas_.pings, meas_.vps, r, coord, slack_ms);
  }

  const Verdict v = cell(r, loc);
  if (v != kUnknown) {
    ++stats_.hits;
    return v == kTrue;
  }

  ++stats_.misses;
  bool verdict;
  const RouterBound& b = bound(r);
  if (b.constrained && coord.valid() && expected_rtt(loc, coord, b.vp) > b.budget_ms) {
    // Same test rtt_consistent() would apply for the closest VP: reject on
    // one haversine instead of scanning every VP.
    verdict = false;
    ++stats_.prefilter_rejects;
  } else if (!coord.valid()) {
    verdict = false;
  } else {
    // rtt_consistent() with the per-location expected RTTs memoized: same
    // conjunction, same arithmetic, each (VP, location) haversine computed
    // at most once per cache lifetime.
    verdict = true;
    for (VpId v = 0; v < meas_.vps.size(); ++v) {
      const auto measured = meas_.pings.rtt(r, v);
      if (!measured) continue;
      if (expected_rtt(loc, coord, v) > *measured + slack_ms_) {
        verdict = false;
        break;
      }
    }
  }
  set_cell(r, loc, verdict);
  return verdict;
}

}  // namespace hoiho::measure
