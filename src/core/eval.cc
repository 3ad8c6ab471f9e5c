#include "core/eval.h"

#include <algorithm>

#include "util/strings.h"

namespace hoiho::core {

std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::kNone: return "none";
    case Outcome::kTP: return "tp";
    case Outcome::kFP: return "fp";
    case Outcome::kFN: return "fn";
    case Outcome::kUNK: return "unk";
  }
  return "?";
}

Evaluator::Evaluator(const geo::GeoDictionary& dict, const measure::Measurements& meas,
                     double slack_ms, measure::ConsistencyCache* cache)
    : dict_(dict), meas_(meas), slack_ms_(slack_ms), cache_(cache) {}

bool Evaluator::rtt_consistent_for(topo::RouterId r, geo::LocationId id) const {
  const geo::Coordinate& coord = dict_.location(id).coord;
  if (cache_ != nullptr) return cache_->consistent(r, id, coord, slack_ms_);
  return measure::rtt_consistent(meas_.pings, meas_.vps, r, coord, slack_ms_);
}

geo::LocationId Evaluator::choose_location(std::span<const geo::LocationId> ids) const {
  geo::LocationId best = geo::kInvalidLocation;
  for (geo::LocationId id : ids) {
    if (best == geo::kInvalidLocation) {
      best = id;
      continue;
    }
    const geo::Location& a = dict_.location(id);
    const geo::Location& b = dict_.location(best);
    if (a.has_facility != b.has_facility) {
      if (a.has_facility) best = id;
    } else if (a.population != b.population) {
      if (a.population > b.population) best = id;
    }
  }
  return best;
}

const rx::Program& Evaluator::program_for(const GeoRegex& gr) const {
  const std::string key = gr.regex.to_string();
  const auto it = programs_.find(key);
  if (it != programs_.end()) return it->second;
  return programs_.emplace(key, rx::Program::compile(gr.regex)).first->second;
}

std::optional<Extraction> Evaluator::extract_compiled(const NamingConvention& nc,
                                                      std::span<const rx::Program* const> progs,
                                                      const dns::Hostname& host,
                                                      bool* budget_exhausted) const {
  // Byte-presence table for this subject, shared across the NC's programs:
  // a program whose required bytes are not all present cannot match (the
  // same screen SetMatcher::match_all applies to its candidates).
  rx::ClassBits present;
  for (const char c : host.full) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 128) present.set(u);
  }
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const rx::Program& p = *progs[i];
    if (p.required_bytes().any_not_in(present)) continue;
    if (!p.match(host.full, scratch_)) {
      if (scratch_.budget_exhausted && budget_exhausted != nullptr) *budget_exhausted = true;
      continue;
    }
    caps_.resize(p.capture_count());
    p.captures(scratch_, caps_.data());
    if (auto ex = decode_extraction(nc.regexes[i], static_cast<int>(i), host.full, caps_))
      return ex;
  }
  return std::nullopt;
}

HostnameEval Evaluator::evaluate_one(const NamingConvention& nc,
                                     const TaggedHostname& tagged) const {
  // Apply regexes in order; first match interprets the hostname.
  bool exhausted = false;
  progs_tmp_.clear();
  for (const GeoRegex& gr : nc.regexes) progs_tmp_.push_back(&program_for(gr));
  const std::optional<Extraction> ex =
      extract_compiled(nc, progs_tmp_, *tagged.ref.hostname, &exhausted);
  HostnameEval ev = evaluate_extraction(nc.learned, tagged, ex, /*details=*/true);
  ev.budget_exhausted = exhausted;
  return ev;
}

HostnameEval Evaluator::evaluate_extraction(const std::map<LearnedKey, geo::LocationId>& learned,
                                            const TaggedHostname& tagged,
                                            const std::optional<Extraction>& ex,
                                            bool details) const {
  HostnameEval ev;
  if (!ex) {
    ev.outcome = tagged.has_hint() ? Outcome::kFN : Outcome::kNone;
    return ev;
  }
  ev.regex_index = ex->regex_index;
  ev.code = ex->code;
  ev.cc = ex->cc;
  ev.st = ex->st;
  const geo::HintType dt = dictionary_for(ex->primary);

  // Dictionary lookup: learned per-suffix geohints first, then reference.
  // The location lists live in member scratch so per-hostname scoring does
  // not allocate; `details` decides whether they are copied into ev.
  std::vector<geo::LocationId>& candidates = cand_tmp_;
  candidates.clear();
  const auto learned_it =
      learned.empty() ? learned.end() : learned.find(LearnedKey{dt, ev.code});
  if (learned_it != learned.end()) {
    candidates.push_back(learned_it->second);
    ev.via_learned = true;
  } else {
    const auto ids = dict_.lookup(dt, ev.code);
    candidates.assign(ids.begin(), ids.end());
  }

  // Narrow by extracted annotations.
  if (!ev.cc.empty()) {
    std::erase_if(candidates,
                  [&](geo::LocationId id) { return !dict_.matches_country(ev.cc, id); });
  }
  if (!ev.st.empty()) {
    std::erase_if(candidates, [&](geo::LocationId id) { return !dict_.matches_state(ev.st, id); });
  }
  if (candidates.empty()) {
    ev.outcome = Outcome::kUNK;
    return ev;
  }

  // RTT consistency.
  std::vector<geo::LocationId>& consistent = cons_tmp_;
  consistent.clear();
  for (geo::LocationId id : candidates) {
    if (rtt_consistent_for(tagged.ref.router, id)) consistent.push_back(id);
  }
  if (details) ev.locations.assign(candidates.begin(), candidates.end());
  if (consistent.empty()) {
    ev.outcome = Outcome::kFP;
    return ev;
  }

  // Completeness: if the apparent geohint carried state/country annotations,
  // the regex must have extracted them (paper: extracting "lhr" without "uk"
  // from fig. 6a is a FN).
  for (const ApparentHint& hint : tagged.hints) {
    if (hint.code != ev.code || dictionary_for(hint.role) != dt) continue;
    for (const HintAnnotation& ann : hint.annotations) {
      if (ann.role == Role::kCountryCode && ev.cc.empty()) {
        ev.outcome = Outcome::kFN;
        return ev;
      }
      if (ann.role == Role::kStateCode && ev.st.empty()) {
        ev.outcome = Outcome::kFN;
        return ev;
      }
    }
    break;
  }

  ev.outcome = Outcome::kTP;
  if (details) {
    ev.locations.assign(consistent.begin(), consistent.end());
    ev.best_location = choose_location(consistent);
  }
  return ev;
}

namespace {

// Folds one hostname's result into the running evaluation. `keep` false
// drops the per-hostname record after counting (counts-only evaluation).
void accumulate(NcEvaluation& out, HostnameEval&& ev, bool keep = true) {
  switch (ev.outcome) {
    case Outcome::kTP:
      ++out.counts.tp;
      out.unique_tp_codes.insert(ev.code);
      if (ev.regex_index >= 0)
        out.regex_unique_tp[static_cast<std::size_t>(ev.regex_index)].insert(ev.code);
      break;
    case Outcome::kFP: ++out.counts.fp; break;
    case Outcome::kFN: ++out.counts.fn; break;
    case Outcome::kUNK: ++out.counts.unk; break;
    case Outcome::kNone: ++out.counts.none; break;
  }
  if (ev.budget_exhausted) ++out.counts.budget_exhausted;
  if (keep) out.per_hostname.push_back(std::move(ev));
}

}  // namespace

NcEvaluation Evaluator::evaluate_impl(const NamingConvention& nc,
                                      std::span<const TaggedHostname> tagged,
                                      bool details) const {
  NcEvaluation out;
  if (details) out.per_hostname.reserve(tagged.size());
  out.regex_unique_tp.resize(nc.regexes.size());
  // Resolve the NC's programs once per call — memo lookup keys by the
  // printed pattern, far too expensive to recompute per hostname. Pointers
  // stay valid across inserts (node-based map).
  progs_tmp_.clear();
  for (const GeoRegex& gr : nc.regexes) progs_tmp_.push_back(&program_for(gr));
  for (const TaggedHostname& th : tagged) {
    bool exhausted = false;
    const std::optional<Extraction> ex =
        extract_compiled(nc, progs_tmp_, *th.ref.hostname, &exhausted);
    HostnameEval ev = evaluate_extraction(nc.learned, th, ex, details);
    ev.budget_exhausted = exhausted;
    accumulate(out, std::move(ev), details);
  }
  return out;
}

NcEvaluation Evaluator::evaluate(const NamingConvention& nc,
                                 std::span<const TaggedHostname> tagged) const {
  return evaluate_impl(nc, tagged, /*details=*/true);
}

NcEvaluation Evaluator::evaluate_counts(const NamingConvention& nc,
                                        std::span<const TaggedHostname> tagged) const {
  return evaluate_impl(nc, tagged, /*details=*/false);
}

std::vector<NcEvaluation> Evaluator::evaluate_candidates(
    std::span<const GeoRegex> candidates, std::span<const TaggedHostname> tagged) const {
  static const std::map<LearnedKey, geo::LocationId> kNoLearned;

  std::vector<NcEvaluation> out(candidates.size());
  if (candidates.empty()) return out;
  for (NcEvaluation& ev : out) {
    ev.per_hostname.reserve(tagged.size());
    ev.regex_unique_tp.resize(1);
  }

  rx::SetMatcher matcher;
  for (const GeoRegex& gr : candidates) matcher.add(gr.regex);
  matcher.finalize();

  rx::SetMatches matches;
  for (const TaggedHostname& th : tagged) {
    const std::string_view full = th.ref.hostname->full;
    matcher.match_all(full, scratch_, matches);
    // One merged walk over candidates and the ascending hit list: matched
    // candidates decode their captures, the rest score as no-extraction.
    std::size_t hit = 0, exh = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      std::optional<Extraction> ex;
      if (hit < matches.size() && matches.indices[hit] == i) {
        ex = decode_extraction(candidates[i], 0, full, matches.captures(hit));
        ++hit;
      }
      HostnameEval ev = evaluate_extraction(kNoLearned, th, ex, /*details=*/true);
      while (exh < matches.exhausted.size() && matches.exhausted[exh] < i) ++exh;
      ev.budget_exhausted = exh < matches.exhausted.size() && matches.exhausted[exh] == i;
      accumulate(out[i], std::move(ev));
    }
  }
  return out;
}

}  // namespace hoiho::core
