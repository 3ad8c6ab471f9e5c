// The fusion facade: candidate gathering x RTT feasibility x population
// prior, in one call (DESIGN.md §13).
//
//   auto ctx = fuse::FuseContext::build(topology, measurements, dict);
//   fuse::Fuser fuser(geolocator, ctx.get());
//   fuse::FuseResult r = fuser.fuse("core1.mel1.example.net");
//   // r.verdicts.front() is the best location with score + evidence
//
// A FuseContext is the measurement half of the equation: the RTT campaign,
// a subject (IP address or hostname) -> router index so a GEO request can
// find its measurements, the shared speed-of-light grid, and the population
// prior. It is immutable after build() and shared by reference-count — in
// the serving subsystem it rides inside the ModelSnapshot, surviving model
// hot-reloads unchanged (measurements churn on a different cadence than
// models). A Fuser with a null context still works: candidates are gathered
// and ranked on extraction + population alone, with every candidate left
// rtt_checked == false — deterministic, just less discriminating.
//
// Thread safety: Fuser and FuseContext are immutable after construction;
// fuse() is const and safe from any number of threads (the serve workers
// call it concurrently on one snapshot).
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "fuse/rank.h"
#include "fuse/rtt_filter.h"
#include "obs/metrics.h"
#include "topo/topology.h"

namespace hoiho::fuse {

// One subject binding as loaded from a subjects file (hoihod --subjects):
// which router a servable subject (address or hostname) belongs to, plus an
// optional representative hostname to extract from when the subject itself
// is an address.
struct SubjectRow {
  std::string subject;
  topo::RouterId router = topo::kInvalidRouter;
  std::string hostname;  // "" = the subject is its own hostname
};

// Lenient loader for `subject,router[,hostname]` CSV ('#' comments
// allowed); router is the dense 0-based id the RTT campaign samples refer
// to. Skip categories: oversized_line, bad_fields, bad_number.
std::optional<std::vector<SubjectRow>> load_subjects(std::istream& in,
                                                     const io::LoadOptions& opt = {},
                                                     io::LoadReport* report = nullptr);

struct FuseConfig {
  RttFilterConfig rtt;
  RankerConfig rank;
};

// Immutable measurement-side context, shared across fuse() calls.
class FuseContext {
 public:
  // Builds the context: indexes every interface address and hostname of
  // `topology` to its router, and precomputes the (location x VP)
  // speed-of-light grid when `dict.size() * vps <= max_grid_cells` (the
  // default is the learner's own cap; over the cap the filter falls back
  // to per-candidate haversines, same doubles).
  static std::shared_ptr<const FuseContext> build(const topo::Topology& topology,
                                                  measure::Measurements meas,
                                                  const geo::GeoDictionary& dict,
                                                  PopulationPrior prior = {},
                                                  std::size_t max_grid_cells = 4u << 20);

  // Same, from explicit subject bindings instead of a topology — what the
  // daemon uses (hoihod loads a subjects file next to the RTT campaign
  // rather than a full ITDK topology).
  static std::shared_ptr<const FuseContext> build(std::span<const SubjectRow> subjects,
                                                  measure::Measurements meas,
                                                  const geo::GeoDictionary& dict,
                                                  PopulationPrior prior = {},
                                                  std::size_t max_grid_cells = 4u << 20);

  const measure::Measurements& measurements() const { return meas_; }
  const measure::ExpectedRttGrid* grid() const { return grid_.get(); }
  const PopulationPrior& prior() const { return prior_; }
  std::size_t subject_count() const { return subjects_.size(); }

  // The router a subject (interface address or hostname) maps to, or
  // kInvalidRouter if unknown.
  topo::RouterId router_for(std::string_view subject) const {
    const auto it = subjects_.find(subject);
    return it == subjects_.end() ? topo::kInvalidRouter : it->second;
  }

  // A representative hostname of router `r` (its first named interface),
  // empty if the router has none — what fuse() extracts from when the
  // subject was an address.
  std::string_view hostname_for(topo::RouterId r) const {
    return r < router_hostname_.size() ? std::string_view(router_hostname_[r])
                                       : std::string_view();
  }

 private:
  FuseContext() = default;

  using SubjectMap = std::unordered_map<std::string, topo::RouterId,
                                        util::TransparentStringHash, std::equal_to<>>;

  measure::Measurements meas_;
  std::unique_ptr<measure::ExpectedRttGrid> grid_;
  PopulationPrior prior_;
  SubjectMap subjects_;
  std::vector<std::string> router_hostname_;  // [router] -> first named interface
};

// Registry handles for the fusion counters, built once and reused (the
// serve hot path must not take the registry mutex per request). Default
// construction gives no-op handles (instrumentation-free fusing).
struct FuseMetrics {
  obs::Counter candidates;       // fuse_candidates: candidates gathered
  obs::Counter rtt_infeasible;   // fuse_rtt_infeasible: candidates refuted by physics
  obs::Histogram rank_score;     // fuse_rank_score: top-verdict scores (0..1)

  FuseMetrics() = default;
  explicit FuseMetrics(obs::Registry& registry);
};

struct FuseResult {
  CandidateSet set;               // candidates + extraction evidence
  std::vector<Verdict> verdicts;  // ranked best-first; empty = no answer
  topo::RouterId router = topo::kInvalidRouter;  // resolved subject, if any
  bool rtt_constrained = false;   // verdicts were filtered against real RTTs

  bool answered() const { return !verdicts.empty(); }
  const Verdict& best() const { return verdicts.front(); }
};

class Fuser {
 public:
  // `ctx` may be null (no RTT constraint, dictionary populations only).
  // Referents must outlive the Fuser.
  Fuser(const core::Geolocator& geolocator, const FuseContext* ctx = nullptr,
        FuseConfig config = {}, FuseMetrics metrics = {})
      : geolocator_(geolocator), ctx_(ctx), config_(config), metrics_(metrics) {}

  // Fuses all signals for `subject` — a hostname, or an interface address
  // the context can map to a router whose hostname is then looked up. The
  // optional claimed coordinate joins the candidate set as Source::kClaimed.
  FuseResult fuse(std::string_view subject,
                  const std::optional<geo::Coordinate>& claimed = std::nullopt) const;

  const core::Geolocator& geolocator() const { return geolocator_; }
  const FuseContext* context() const { return ctx_; }
  const FuseConfig& config() const { return config_; }

 private:
  const core::Geolocator& geolocator_;
  const FuseContext* ctx_;
  FuseConfig config_;
  FuseMetrics metrics_;
};

}  // namespace hoiho::fuse
