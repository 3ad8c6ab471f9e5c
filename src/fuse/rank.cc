#include "fuse/rank.h"

#include <algorithm>
#include <cmath>
#include <istream>

#include "util/csv.h"
#include "util/strings.h"

namespace hoiho::fuse {

namespace {

double nc_confidence(const CandidateSet& set, const Candidate& c) {
  if (c.source == Source::kClaimed) return 0.50;
  switch (set.cls) {
    case core::NcClass::kGood: return 0.95;
    case core::NcClass::kPromising: return 0.70;
    case core::NcClass::kPoor: return 0.40;
  }
  return 0.40;
}

}  // namespace

std::optional<PopulationPrior> PopulationPrior::load(std::istream& in,
                                                     const geo::GeoDictionary& dict,
                                                     const io::LoadOptions& opt,
                                                     io::LoadReport* report) {
  io::LoadReport local;
  io::LoadReport& rep = report != nullptr ? *report : local;
  PopulationPrior prior;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    ++rep.lines;
    if (line.size() > opt.max_line_bytes) {
      if (!rep.skip(opt, "oversized_line", lineno,
                    "line exceeds " + std::to_string(opt.max_line_bytes) + " bytes"))
        return std::nullopt;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const util::CsvRow row = util::parse_csv_line(line);
    if (row.empty()) continue;
    // city,country,population or city,state,country,population.
    if (row.size() != 3 && row.size() != 4) {
      if (!rep.skip(opt, "bad_fields", lineno, "need 3 or 4 fields")) return std::nullopt;
      continue;
    }
    const std::string& city = row[0];
    const std::string state = row.size() == 4 ? util::to_lower(row[1]) : std::string();
    const std::string country = util::to_lower(row[row.size() - 2]);
    const auto population = util::parse_u64(row.back());
    if (!population) {
      if (!rep.skip(opt, "bad_number", lineno, "non-numeric population")) return std::nullopt;
      continue;
    }
    if (opt.max_records > 0 && rep.records >= opt.max_records) {
      rep.fail("line " + std::to_string(lineno) + ": more than " +
               std::to_string(opt.max_records) + " rows (record cap)");
      return std::nullopt;
    }
    const auto ids = dict.lookup(geo::HintType::kCityName, geo::squash_place_name(city));
    std::size_t applied = 0;
    for (const geo::LocationId id : ids) {
      if (!country.empty() && !dict.matches_country(country, id)) continue;
      if (!state.empty() && !dict.matches_state(state, id)) continue;
      prior.set(id, *population);
      ++applied;
    }
    if (applied == 0) {
      if (!rep.skip(opt, "unknown_place", lineno, "no dictionary location matches '" + city +
                                                      (state.empty() ? "" : "," + state) + "," +
                                                      country + "'"))
        return std::nullopt;
      continue;
    }
    ++rep.records;
  }
  if (in.bad()) {
    rep.fail("stream read failure");
    return std::nullopt;
  }
  return prior;
}

std::vector<Verdict> Ranker::rank(CandidateSet& set) const {
  std::vector<Verdict> verdicts;
  verdicts.reserve(set.candidates.size());
  for (Candidate& c : set.candidates) {
    const double nc_conf = nc_confidence(set, c);

    double rtt_score = 0.5;  // unchecked: no evidence either way
    if (c.rtt_checked) {
      rtt_score = c.feasible
                      ? 0.5 + 0.5 * std::min(1.0, c.margin_ms / config_.margin_norm_ms)
                      : 0.0;
    }

    const std::uint64_t pop = c.location != geo::kInvalidLocation
                                  ? (prior_ != nullptr ? prior_->population(dict_, c.location)
                                                       : dict_.location(c.location).population)
                                  : 0;
    const double pop_score =
        std::min(1.0, std::log10(static_cast<double>(pop) + 1.0) / 8.0);

    c.score = config_.w_nc * nc_conf + config_.w_rtt * rtt_score + config_.w_pop * pop_score;

    Verdict v;
    v.location = c.location;
    v.coord = c.coord;
    v.source = c.source;
    v.feasible = c.feasible;
    v.rtt_checked = c.rtt_checked;
    v.margin_ms = c.margin_ms;
    v.score = c.score;
    v.evidence = "code=" + (set.matched ? set.code : std::string("-"));
    v.evidence += " hint=";
    v.evidence += geo::to_string(set.hint);
    v.evidence += " src=";
    v.evidence += to_string(c.source);
    v.evidence += " cls=";
    v.evidence += core::to_string(set.cls);
    v.evidence += " rtt=";
    if (!c.rtt_checked) {
      v.evidence += "unchecked";
    } else if (!c.feasible) {
      v.evidence += "infeasible(" + util::fmt_double(c.margin_ms, 1) + "ms)";
    } else {
      v.evidence += "+" + util::fmt_double(c.margin_ms, 1) + "ms";
    }
    v.evidence += " pop=" + util::fmt_count(pop);
    verdicts.push_back(std::move(v));
  }
  std::stable_sort(verdicts.begin(), verdicts.end(), [](const Verdict& a, const Verdict& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.location != b.location) return a.location < b.location;
    return static_cast<int>(a.source) < static_cast<int>(b.source);
  });
  return verdicts;
}

}  // namespace hoiho::fuse
