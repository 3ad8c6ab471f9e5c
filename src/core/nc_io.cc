#include "core/nc_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "geo/dictionary.h"
#include "io/load_report.h"
#include "regex/parser.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/file.h"
#include "util/strings.h"

namespace hoiho::core {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::string_view kChecksumPrefix = "# checksum,fnv1a,";

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::optional<Role> role_from_token(std::string_view s) {
  for (const Role r : {Role::kIata, Role::kIcao, Role::kLocode, Role::kClli, Role::kClli4,
                       Role::kClli2, Role::kCityName, Role::kFacility, Role::kCountryCode,
                       Role::kStateCode}) {
    if (s == to_string(r)) return r;
  }
  return std::nullopt;
}

}  // namespace

std::optional<geo::HintType> hint_type_from_token(std::string_view s) {
  for (const geo::HintType t :
       {geo::HintType::kIata, geo::HintType::kIcao, geo::HintType::kLocode,
        geo::HintType::kClli, geo::HintType::kCityName, geo::HintType::kFacility}) {
    if (s == to_string(t)) return t;
  }
  return std::nullopt;
}

std::optional<NcClass> nc_class_from_token(std::string_view s) {
  for (const NcClass c : {NcClass::kGood, NcClass::kPromising, NcClass::kPoor})
    if (s == to_string(c)) return c;
  return std::nullopt;
}

std::uint64_t fnv1a_hash(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string checksum_footer_line(std::uint64_t hash) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "# checksum,fnv1a,%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::optional<std::uint64_t> parse_checksum_footer(std::string_view line) {
  if (!util::starts_with(line, kChecksumPrefix)) return std::nullopt;
  const std::string_view hex = line.substr(kChecksumPrefix.size());
  if (hex.size() != 16) return std::nullopt;
  std::uint64_t stored = 0;
  for (const char c : hex) {
    const int v = hex_digit(c);
    if (v < 0) return std::nullopt;
    stored = stored * 16 + static_cast<std::uint64_t>(v);
  }
  return stored;
}

geo::LocationId resolve_stored_place(const geo::GeoDictionary& dict, std::string_view city,
                                     std::string_view state, std::string_view country) {
  for (geo::LocationId id :
       dict.lookup(geo::HintType::kCityName, geo::squash_place_name(city))) {
    const geo::Location& loc = dict.location(id);
    if (!geo::same_country(loc.country, country)) continue;
    if (!state.empty() && loc.state != util::to_lower(state)) continue;
    return id;
  }
  return geo::kInvalidLocation;
}

std::string plan_to_token(const Plan& plan) {
  std::string out;
  for (std::size_t i = 0; i < plan.roles.size(); ++i) {
    if (i) out += "+";
    out += std::string(to_string(plan.roles[i]));
  }
  return out;
}

std::optional<Plan> plan_from_token(std::string_view token) {
  Plan plan;
  for (const std::string_view part : util::split(token, "+")) {
    const auto role = role_from_token(part);
    if (!role) return std::nullopt;
    plan.roles.push_back(*role);
  }
  if (plan.roles.empty()) return std::nullopt;
  return plan;
}

void save_convention_block(std::ostream& out, const StoredConvention& sc,
                           const geo::GeoDictionary& dict) {
  util::write_csv_row(out, {"S", sc.nc.suffix, std::string(to_string(sc.cls))});
  for (const GeoRegex& gr : sc.nc.regexes)
    util::write_csv_row(out, {"R", plan_to_token(gr.plan), gr.regex.to_string()});
  // Learned geohints are stored by place name so the file survives
  // dictionary rebuilds.
  for (const auto& [key, loc] : sc.nc.learned) {
    const geo::Location& l = dict.location(loc);
    util::write_csv_row(out, {"L", std::string(to_string(key.first)), key.second, l.city,
                              l.state, l.country});
  }
}

void save_conventions(std::ostream& out, const std::vector<StoredConvention>& conventions,
                      const geo::GeoDictionary& dict) {
  out << "# hoiho-geo naming conventions v1\n";
  for (const StoredConvention& sc : conventions) save_convention_block(out, sc, dict);
}

bool has_control_bytes(std::string_view s) {
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f) return true;
  }
  return false;
}

bool plausible_suffix(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return s.front() != '.' && s.back() != '.';
}

ConventionReader::ConventionReader(const geo::GeoDictionary& dict, const LoadLimits& limits,
                                   std::vector<std::string>* warnings)
    : dict_(dict), limits_(limits), warnings_(warnings) {}

bool ConventionReader::feed(const std::vector<std::string>& row, const std::string& where,
                            std::string* error) {
  auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  auto note = [&](std::string msg) {
    if (warnings_ != nullptr) warnings_->push_back(std::move(msg));
  };
  if (row[0] == "S") {
    if (row.size() != 3)
      return fail("S record needs 3 fields, got " + std::to_string(row.size()));
    if (out_.size() >= limits_.max_conventions)
      return fail("more than " + std::to_string(limits_.max_conventions) + " conventions");
    if (row[1].size() > limits_.max_suffix || !plausible_suffix(row[1]))
      return fail("bad suffix '" + row[1] + "'");
    const auto cls = nc_class_from_token(row[2]);
    if (!cls) return fail("unknown class '" + row[2] + "'");
    if (!out_.empty() && out_.back().nc.regexes.empty())
      note(where + ": suffix '" + out_.back().nc.suffix +
           "' has no regexes (truncated block?)");
    for (const StoredConvention& sc : out_)
      if (sc.nc.suffix == row[1]) {
        note(where + ": duplicate suffix '" + row[1] +
             "' (last block wins when applied)");
        break;
      }
    StoredConvention sc;
    sc.nc.suffix = row[1];
    sc.cls = *cls;
    out_.push_back(std::move(sc));
  } else if (row[0] == "R") {
    if (out_.empty()) return fail("R record before any S record");
    if (row.size() != 3)
      return fail("R record needs 3 fields, got " + std::to_string(row.size()));
    if (row[1].size() > limits_.max_plan)
      return fail("plan token exceeds " + std::to_string(limits_.max_plan) + " bytes");
    if (row[2].size() > limits_.max_regex)
      return fail("regex exceeds " + std::to_string(limits_.max_regex) + " bytes");
    const auto plan = plan_from_token(row[1]);
    if (!plan) return fail("bad plan '" + row[1] + "'");
    std::string rx_error;
    const auto regex = rx::parse(row[2], &rx_error);
    if (!regex) return fail("bad regex: " + rx_error);
    if (regex->capture_count() != plan->roles.size())
      return fail("plan has " + std::to_string(plan->roles.size()) +
                  " roles but regex has " + std::to_string(regex->capture_count()) +
                  " captures");
    GeoRegex gr;
    gr.regex = *regex;
    gr.plan = *plan;
    out_.back().nc.regexes.push_back(std::move(gr));
  } else if (row[0] == "L") {
    if (out_.empty()) return fail("L record before any S record");
    if (row.size() != 6)
      return fail("L record needs 6 fields, got " + std::to_string(row.size()));
    if (row[2].size() > limits_.max_code)
      return fail("code exceeds " + std::to_string(limits_.max_code) + " bytes");
    if (row[3].size() > limits_.max_place || row[4].size() > limits_.max_place ||
        row[5].size() > limits_.max_place)
      return fail("place field exceeds " + std::to_string(limits_.max_place) + " bytes");
    if (row[2].empty()) return fail("empty learned code");
    const auto type = hint_type_from_token(row[1]);
    if (!type) return fail("unknown dictionary type '" + row[1] + "'");
    // Resolve the stored place against the load-time dictionary.
    const geo::LocationId resolved = resolve_stored_place(dict_, row[3], row[4], row[5]);
    if (resolved == geo::kInvalidLocation) {
      note(where + ": dropped learned hint '" + row[2] + "' -> " + row[3] +
           " (place not in dictionary)");
      return true;
    }
    out_.back().nc.learned[LearnedKey{*type, util::to_lower(row[2])}] = resolved;
  } else {
    return fail("unknown record type '" + row[0] + "'");
  }
  return true;
}

std::vector<StoredConvention> ConventionReader::take() {
  if (!out_.empty() && out_.back().nc.regexes.empty() && warnings_ != nullptr)
    warnings_->push_back("suffix '" + out_.back().nc.suffix +
                         "' has no regexes (truncated file?)");
  return std::move(out_);
}

std::optional<std::vector<StoredConvention>> load_conventions(
    std::istream& in, const geo::GeoDictionary& dict, std::string* error,
    std::vector<std::string>* warnings, const LoadLimits& limits, io::LoadReport* report) {
  auto fail = [&](const std::string& msg) -> std::optional<std::vector<StoredConvention>> {
    if (error != nullptr) *error = msg;
    if (report != nullptr) report->fail(msg);
    return std::nullopt;
  };
  ConventionReader reader(dict, limits, warnings);
  std::string line;
  std::size_t lineno = 0;
  std::uint64_t hash = kFnvSeed;
  bool footer_seen = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (report != nullptr) ++report->lines;
    const std::string where = "line " + std::to_string(lineno);
    if (line.size() > limits.max_line)
      return fail(where + ": line exceeds " + std::to_string(limits.max_line) + " bytes");
    if (util::starts_with(line, kChecksumPrefix)) {
      // Integrity footer (save_conventions_to_file): the FNV-1a of every
      // byte above it. Verify, and require the file to end here.
      if (footer_seen) return fail(where + ": duplicate checksum footer");
      const auto stored = parse_checksum_footer(line);
      if (!stored) return fail(where + ": malformed checksum footer");
      if (*stored != hash)
        return fail(where + ": checksum mismatch (file corrupt or torn write)");
      footer_seen = true;
      continue;
    }
    if (footer_seen) {
      // The checksum covers everything above the footer, so ANY trailing
      // line — blank ones included — is unverified input: either a torn
      // append or bytes smuggled past the integrity check. Named error.
      if (report != nullptr) {
        io::LoadOptions count_only;  // lenient so the skip table records it
        count_only.lenient = true;
        report->skip(count_only, "trailing_garbage", lineno,
                     "bytes after checksum footer");
      }
      return fail(where + ": bytes after checksum footer");
    }
    hash = fnv1a_hash(line, hash);
    hash = fnv1a_hash("\n", hash);
    if (line.empty() || line[0] == '#') continue;
    const util::CsvRow row = util::parse_csv_line(line);
    if (row.empty() || (row.size() == 1 && row[0].empty())) continue;
    for (const std::string& field : row)
      if (has_control_bytes(field))
        return fail(where + ": control bytes in field");
    std::string msg;
    if (!reader.feed(row, where, &msg)) return fail(where + ": " + msg);
  }
  if (in.bad()) return fail("read error after line " + std::to_string(lineno));
  std::vector<StoredConvention> out = reader.take();
  if (report != nullptr) report->records = out.size();
  return out;
}

std::string serialize_conventions(const std::vector<StoredConvention>& conventions,
                                  const geo::GeoDictionary& dict) {
  std::ostringstream buf;
  save_conventions(buf, conventions, dict);
  std::string data = buf.str();
  data += checksum_footer_line(fnv1a_hash(data));
  data += '\n';
  return data;
}

bool write_model_file_atomic(const std::string& path, std::string_view data,
                             std::string* error) {
  if (const auto f = util::failpoint::hit("nc.save")) {
    errno = f.err;
    if (error != nullptr) *error = "save '" + path + "' (injected): " + std::strerror(errno);
    return false;
  }
  return util::write_file_atomic(path, data, error);
}

bool save_conventions_to_file(const std::string& path,
                              const std::vector<StoredConvention>& conventions,
                              const geo::GeoDictionary& dict, std::string* error) {
  return write_model_file_atomic(path, serialize_conventions(conventions, dict), error);
}

}  // namespace hoiho::core
