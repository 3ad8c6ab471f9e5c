// Stage 3 (evaluation half): score a naming convention against the tagged
// hostnames of a suffix (paper §5.3).
//
// Per-hostname outcomes:
//   TP  — extracted geohint is RTT-consistent AND the regex also extracted
//         any state/country code that was part of the apparent geohint;
//   FP  — extracted geohint is in the dictionary but not RTT-consistent;
//   FN  — no extraction although the hostname has an apparent geohint, or a
//         required state/country code was not extracted;
//   UNK — extracted string is not in the dictionary (the raw material of
//         stage 4 learning);
//   none — no extraction and no apparent geohint (not counted).
// Scores: ATP = TP - (FP + FN + UNK); PPV = TP / (TP + FP).
#pragma once

#include <set>
#include <span>
#include <unordered_map>

#include "core/geohint.h"
#include "measure/consistency.h"
#include "measure/consistency_cache.h"
#include "regex/set_matcher.h"

namespace hoiho::core {

enum class Outcome : std::uint8_t { kNone, kTP, kFP, kFN, kUNK };
std::string_view to_string(Outcome o);

// How one hostname fared under a naming convention.
struct HostnameEval {
  Outcome outcome = Outcome::kNone;
  int regex_index = -1;         // which regex in the NC matched; -1 if none
  std::string code;             // primary extraction (lower-case), if matched
  std::string cc, st;           // extracted country/state codes, if any
  std::vector<geo::LocationId> locations;  // candidates after narrowing
  geo::LocationId best_location = geo::kInvalidLocation;  // TP only
  bool via_learned = false;     // code resolved through NC.learned
  bool budget_exhausted = false;  // a regex abandoned its match on the work bound
};

struct EvalCounts {
  std::size_t tp = 0, fp = 0, fn = 0, unk = 0, none = 0;
  // Hostnames where at least one regex hit the backtracking work bound; the
  // outcome recorded for them is inconclusive. Not part of scored().
  std::size_t budget_exhausted = 0;

  long atp() const {
    return static_cast<long>(tp) - static_cast<long>(fp + fn + unk);
  }
  double ppv() const {
    return (tp + fp) == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  }
  std::size_t scored() const { return tp + fp + fn + unk; }
};

// Full evaluation of a naming convention over a suffix group.
struct NcEvaluation {
  EvalCounts counts;
  std::vector<HostnameEval> per_hostname;          // parallel to input
  std::set<std::string> unique_tp_codes;           // distinct TP geohints
  std::vector<std::set<std::string>> regex_unique_tp;  // per regex in the NC

  std::size_t unique_count() const { return unique_tp_codes.size(); }
};

// Scores naming conventions against tagged hostnames.
//
// Thread safety: an Evaluator memoizes compiled regex programs and reuses
// match scratch across calls (the pipeline builds one per suffix run, like
// the ConsistencyCache), so a single instance must not be shared across
// threads. Cross-suffix parallelism gives each worker its own evaluator.
class Evaluator {
 public:
  // `cache`, if non-null, memoizes RTT-consistency verdicts; it must be
  // built over the same measurements and slack and outlive the evaluator.
  Evaluator(const geo::GeoDictionary& dict, const measure::Measurements& meas,
            double slack_ms = 0.0, measure::ConsistencyCache* cache = nullptr);

  NcEvaluation evaluate(const NamingConvention& nc,
                        std::span<const TaggedHostname> tagged) const;

  // Like evaluate(), but skips the per-hostname detail (per_hostname stays
  // empty and TP location lists are not materialized). Counts, unique-TP
  // sets, and therefore ATP/PPV are identical to evaluate() — this is the
  // cheap form for trial NCs that are scored and discarded.
  NcEvaluation evaluate_counts(const NamingConvention& nc,
                               std::span<const TaggedHostname> tagged) const;

  // Batch path for candidate scoring: evaluates every candidate as its own
  // single-regex NC, equivalent to (but much faster than) calling
  // evaluate() per candidate — the whole set is compiled into one
  // rx::SetMatcher and each hostname is matched against it in one pass.
  std::vector<NcEvaluation> evaluate_candidates(std::span<const GeoRegex> candidates,
                                                std::span<const TaggedHostname> tagged) const;

  HostnameEval evaluate_one(const NamingConvention& nc, const TaggedHostname& tagged) const;

  // Ranks candidate locations the way stage 4 does (facility, then
  // population, then id for determinism) and returns the best.
  geo::LocationId choose_location(std::span<const geo::LocationId> ids) const;

  // RTT-consistency of dictionary location `id` for router `r` at the
  // evaluator's slack, through the cache when one is attached. Shared by
  // evaluation and stage-4 learning so both hit the same cache.
  bool rtt_consistent_for(topo::RouterId r, geo::LocationId id) const;

  const geo::GeoDictionary& dictionary() const { return dict_; }
  const measure::Measurements& measurements() const { return meas_; }
  double slack_ms() const { return slack_ms_; }

  // Observability taps (DESIGN.md §11): set-matching work accumulated on
  // this evaluator's scratch over its lifetime, and the size of the
  // compiled-program memo. The pipeline folds these into the metrics
  // registry once per suffix run — these replace the older pattern of
  // bolting ad-hoc stat fields onto evaluation results.
  const rx::MatchStats& match_stats() const { return scratch_.set_stats; }
  std::size_t compiled_program_count() const { return programs_.size(); }

 private:
  // The shared scoring core: everything after extraction (dictionary
  // lookup through `learned` then the reference dictionary, annotation
  // narrowing, RTT consistency, completeness). Every evaluation path
  // funnels here.
  // `details` false skips materializing ev.locations / ev.best_location
  // (counts and outcome are unaffected).
  HostnameEval evaluate_extraction(const std::map<LearnedKey, geo::LocationId>& learned,
                                   const TaggedHostname& tagged,
                                   const std::optional<Extraction>& ex, bool details) const;

  NcEvaluation evaluate_impl(const NamingConvention& nc, std::span<const TaggedHostname> tagged,
                             bool details) const;

  // Compiled program for `gr`, memoized by printed pattern (candidate sets
  // and NC-combination trials reuse the same regexes heavily). The printed
  // key is computed here once per resolution — callers must hoist the
  // resolution out of per-hostname loops.
  const rx::Program& program_for(const GeoRegex& gr) const;

  // extract() (the AST engine, kept as the test oracle) over programs
  // pre-resolved for one NC; first regex with a primary code wins. `progs`
  // is parallel to nc.regexes.
  std::optional<Extraction> extract_compiled(const NamingConvention& nc,
                                             std::span<const rx::Program* const> progs,
                                             const dns::Hostname& host,
                                             bool* budget_exhausted) const;

  const geo::GeoDictionary& dict_;
  const measure::Measurements& meas_;
  double slack_ms_;
  measure::ConsistencyCache* cache_;
  mutable std::unordered_map<std::string, rx::Program> programs_;
  mutable rx::MatchScratch scratch_;
  mutable std::vector<rx::Capture> caps_;
  // Per-call scratch (cleared on entry), so per-hostname scoring does not
  // allocate: resolved programs for the NC under evaluation, and the
  // candidate/consistent location lists.
  mutable std::vector<const rx::Program*> progs_tmp_;
  mutable std::vector<geo::LocationId> cand_tmp_, cons_tmp_;
};

}  // namespace hoiho::core
