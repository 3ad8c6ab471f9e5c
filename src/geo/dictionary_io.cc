#include "geo/dictionary_io.h"

#include <cstdlib>
#include <istream>
#include <ostream>

#include "util/csv.h"
#include "util/strings.h"

namespace hoiho::geo {

namespace {

std::optional<HintType> hint_type_from(std::string_view s) {
  if (s == "iata") return HintType::kIata;
  if (s == "icao") return HintType::kIcao;
  if (s == "locode") return HintType::kLocode;
  if (s == "clli") return HintType::kClli;
  return std::nullopt;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

void save_dictionary(std::ostream& out, const GeoDictionary& dict) {
  out << "# hoiho-geo dictionary v1\n";
  for (LocationId id = 0; id < dict.size(); ++id) {
    const Location& loc = dict.location(id);
    util::write_csv_row(out, {"L", loc.city, loc.state, loc.country,
                              util::fmt_double(loc.coord.lat, 4),
                              util::fmt_double(loc.coord.lon, 4),
                              std::to_string(loc.population)});
  }
  for (LocationId id = 0; id < dict.size(); ++id) {
    const LocationCodes& codes = dict.codes(id);
    for (const auto& c : codes.iata)
      util::write_csv_row(out, {"C", "iata", c, std::to_string(id)});
    for (const auto& c : codes.icao)
      util::write_csv_row(out, {"C", "icao", c, std::to_string(id)});
    for (const auto& c : codes.locode)
      util::write_csv_row(out, {"C", "locode", c, std::to_string(id)});
    for (const auto& c : codes.clli)
      util::write_csv_row(out, {"C", "clli", c, std::to_string(id)});
    for (const auto& addr : dict.facility_addresses(id))
      util::write_csv_row(out, {"F", addr, std::to_string(id)});
  }
}

std::optional<GeoDictionary> load_dictionary(std::istream& in, const io::LoadOptions& opt,
                                             io::LoadReport* report) {
  io::LoadReport local;
  io::LoadReport& rep = report != nullptr ? *report : local;
  GeoDictionary dict;
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
    if (row[0] == "L") {
      if (row.size() < 7) {
        if (!rep.skip(opt, "bad_fields", lineno, "L record needs 7 fields")) return std::nullopt;
        continue;
      }
      if (opt.max_records > 0 && dict.size() >= opt.max_records) {
        rep.fail("line " + std::to_string(lineno) + ": more than " +
                 std::to_string(opt.max_records) + " locations (record cap)");
        return std::nullopt;
      }
      Location loc;
      loc.city = row[1];
      loc.state = util::to_lower(row[2]);
      loc.country = util::to_lower(row[3]);
      const auto population = util::parse_u64(row[6]);
      if (!parse_double(row[4], &loc.coord.lat) || !parse_double(row[5], &loc.coord.lon) ||
          !population) {
        if (!rep.skip(opt, "bad_number", lineno, "non-numeric coordinate or population"))
          return std::nullopt;
        continue;
      }
      loc.population = *population;
      dict.add_location(std::move(loc));
      ++rep.records;
    } else if (row[0] == "C") {
      if (row.size() < 4) {
        if (!rep.skip(opt, "bad_fields", lineno, "C record needs 4 fields")) return std::nullopt;
        continue;
      }
      const auto type = hint_type_from(row[1]);
      if (!type) {
        if (!rep.skip(opt, "unknown_code_type", lineno, "unknown code type '" + row[1] + "'"))
          return std::nullopt;
        continue;
      }
      const auto idx = util::parse_u64(row[3]);
      if (!idx || *idx >= dict.size()) {
        if (!rep.skip(opt, "index_out_of_range", lineno, "location index out of range"))
          return std::nullopt;
        continue;
      }
      dict.add_code(*type, row[2], static_cast<LocationId>(*idx));
      ++rep.records;
    } else if (row[0] == "A") {
      if (row.size() < 3) {
        if (!rep.skip(opt, "bad_fields", lineno, "A record needs 3 fields")) return std::nullopt;
        continue;
      }
      const auto idx = util::parse_u64(row[2]);
      if (!idx || *idx >= dict.size()) {
        if (!rep.skip(opt, "index_out_of_range", lineno, "location index out of range"))
          return std::nullopt;
        continue;
      }
      dict.add_city_alias(row[1], static_cast<LocationId>(*idx));
      ++rep.records;
    } else if (row[0] == "F") {
      if (row.size() < 3) {
        if (!rep.skip(opt, "bad_fields", lineno, "F record needs 3 fields")) return std::nullopt;
        continue;
      }
      const auto idx = util::parse_u64(row[2]);
      if (!idx || *idx >= dict.size()) {
        if (!rep.skip(opt, "index_out_of_range", lineno, "location index out of range"))
          return std::nullopt;
        continue;
      }
      dict.add_facility_address(row[1], static_cast<LocationId>(*idx));
      ++rep.records;
    } else {
      if (!rep.skip(opt, "unknown_record", lineno, "unknown record type '" + row[0] + "'"))
        return std::nullopt;
      continue;
    }
  }
  if (in.bad()) {
    rep.fail("read error after line " + std::to_string(lineno));
    return std::nullopt;
  }
  return dict;
}

std::optional<GeoDictionary> load_dictionary(std::istream& in, std::string* error) {
  io::LoadReport report;
  auto dict = load_dictionary(in, io::LoadOptions{}, &report);
  if (!dict && error != nullptr) *error = report.error;
  return dict;
}

}  // namespace hoiho::geo
