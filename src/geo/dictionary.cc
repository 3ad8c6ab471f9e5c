#include "geo/dictionary.h"

#include <cctype>

#include "util/strings.h"

namespace hoiho::geo {

std::string_view to_string(HintType t) {
  switch (t) {
    case HintType::kIata: return "iata";
    case HintType::kIcao: return "icao";
    case HintType::kLocode: return "locode";
    case HintType::kClli: return "clli";
    case HintType::kCityName: return "city";
    case HintType::kFacility: return "facility";
    case HintType::kCountryCode: return "country";
    case HintType::kStateCode: return "state";
  }
  return "?";
}

std::size_t code_length(HintType t) {
  switch (t) {
    case HintType::kIata: return 3;
    case HintType::kIcao: return 4;
    case HintType::kLocode: return 5;
    case HintType::kClli: return 6;
    case HintType::kCountryCode: return 2;
    case HintType::kStateCode: return 2;
    default: return 0;
  }
}

namespace {

std::string squash_alnum(std::string_view s) {
  std::string out;
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) out.push_back(static_cast<char>(std::tolower(u)));
  }
  return out;
}

}  // namespace

LocationId GeoDictionary::add_location(Location loc) {
  const LocationId id = static_cast<LocationId>(locations_.size());
  // Index the squashed city name.
  const std::string key = squash_place_name(loc.city);
  if (!key.empty()) city_[key].push_back(id);
  if (!loc.country.empty()) {
    std::string cc = util::to_lower(loc.country);
    if (cc == "uk") cc = "gb";
    countries_.insert(cc);
    if (!loc.state.empty()) {
      const std::string st = util::to_lower(loc.state);
      states_.insert(cc + "/" + st);
      states_any_.insert(st);
    }
  }
  // Precompute the abbreviation word splits and bucket the location by the
  // first letter of each name variant (the first-char rule lets
  // abbreviation_candidates skip every other bucket).
  abbrev_index_.push_back(build_abbrev_index(loc));
  bool bucketed[26] = {};
  for (const auto& words : abbrev_index_.back().variant_words) {
    if (words.empty()) continue;
    const char c = words[0][0];
    if (c < 'a' || c > 'z' || bucketed[c - 'a']) continue;
    bucketed[c - 'a'] = true;
    abbrev_first_[static_cast<std::size_t>(c - 'a')].push_back(id);
  }
  content_.mix("L\n").mix(loc.city).mix("\n").mix(loc.state).mix("\n").mix(loc.country)
      .mix("\n").mix(loc.coord.lat).mix(loc.coord.lon).mix(loc.population)
      .mix(std::uint64_t{loc.has_facility});
  locations_.push_back(std::move(loc));
  codes_.emplace_back();
  facility_addrs_.emplace_back();
  return id;
}

const GeoDictionary::CodeMap* GeoDictionary::map_for(HintType t) const {
  switch (t) {
    case HintType::kIata: return &iata_;
    case HintType::kIcao: return &icao_;
    case HintType::kLocode: return &locode_;
    case HintType::kClli: return &clli_;
    case HintType::kCityName: return &city_;
    case HintType::kFacility: return &facility_;
    default: return nullptr;
  }
}

GeoDictionary::CodeMap* GeoDictionary::map_for(HintType t) {
  return const_cast<CodeMap*>(static_cast<const GeoDictionary*>(this)->map_for(t));
}

void GeoDictionary::add_code(HintType type, std::string_view code, LocationId id) {
  auto* map = map_for(type);
  if (map == nullptr) return;
  const std::size_t want = code_length(type);
  if (want != 0 && code.size() != want) return;
  const std::string key = util::to_lower(code);
  auto& v = (*map)[key];
  for (LocationId existing : v)
    if (existing == id) return;
  v.push_back(id);
  content_.mix("C\n").mix(std::uint64_t{static_cast<std::uint8_t>(type)}).mix(key).mix("\n")
      .mix(std::uint64_t{id});
  // Maintain the reverse index for fixed-width code types.
  switch (type) {
    case HintType::kIata: codes_[id].iata.push_back(key); break;
    case HintType::kIcao: codes_[id].icao.push_back(key); break;
    case HintType::kLocode: codes_[id].locode.push_back(key); break;
    case HintType::kClli: codes_[id].clli.push_back(key); break;
    default: break;
  }
}

void GeoDictionary::add_facility_address(std::string_view address, LocationId id) {
  const std::string key = squash_alnum(address);
  if (key.empty()) return;
  auto& v = facility_[key];
  for (LocationId existing : v)
    if (existing == id) return;
  v.push_back(id);
  content_.mix("F\n").mix(key).mix("\n").mix(std::uint64_t{id});
  facility_addrs_[id].push_back(key);
  locations_[id].has_facility = true;
}

void GeoDictionary::add_city_alias(std::string_view name, LocationId id) {
  const std::string key = squash_place_name(name);
  if (key.empty()) return;
  auto& v = city_[key];
  for (LocationId existing : v)
    if (existing == id) return;
  v.push_back(id);
  content_.mix("A\n").mix(key).mix("\n").mix(std::uint64_t{id});
}

std::span<const LocationId> GeoDictionary::lookup(HintType type, std::string_view code) const {
  const auto* map = map_for(type);
  if (map == nullptr) return {};
  // Extracted codes are already lower-case; only allocate the canonical
  // form when a caller passes mixed case.
  const auto it = util::is_lower(code) ? map->find(code) : map->find(util::to_lower(code));
  if (it == map->end()) return {};
  return it->second;
}

bool GeoDictionary::country_known(std::string_view cc) const {
  std::string c = util::to_lower(cc);
  if (c == "uk") c = "gb";
  return countries_.contains(c);
}

bool GeoDictionary::state_known(std::string_view cc, std::string_view st) const {
  std::string c = util::to_lower(cc);
  if (c == "uk") c = "gb";
  return states_.contains(c + "/" + util::to_lower(st));
}

bool GeoDictionary::any_state_known(std::string_view st) const {
  if (util::is_lower(st)) return states_any_.contains(st);
  return states_any_.contains(util::to_lower(st));
}

bool GeoDictionary::matches_country(std::string_view cc, LocationId id) const {
  return same_country(cc, locations_[id].country);
}

bool GeoDictionary::matches_state(std::string_view st, LocationId id) const {
  const std::string& s = locations_[id].state;
  if (s.empty() || st.size() != s.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(st[i])) != s[i]) return false;
  }
  return true;
}

std::span<const std::string> GeoDictionary::facility_addresses(LocationId id) const {
  return facility_addrs_[id];
}

std::vector<LocationId> GeoDictionary::abbreviation_candidates(
    std::string_view abbrev, const AbbrevOptions& opts) const {
  std::vector<LocationId> out;
  // Every accepted abbreviation starts with the first letter of the place
  // name, so only that bucket can match; buckets are in add order, keeping
  // the output ascending like the full scan it replaces.
  if (abbrev.empty() || abbrev[0] < 'a' || abbrev[0] > 'z') return out;
  for (LocationId id : abbrev_first_[static_cast<std::size_t>(abbrev[0] - 'a')]) {
    if (is_location_abbrev(abbrev, abbrev_index_[id], opts)) out.push_back(id);
  }
  return out;
}

}  // namespace hoiho::geo
