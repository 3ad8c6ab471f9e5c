// GeoDictionary: the reference location dictionary of paper §5.1.1.
//
// Maps geohint codes of each type (IATA, ICAO, UN/LOCODE, CLLI prefix, city
// name, facility street address) to Locations annotated with lat/longs,
// ISO-3166 codes, population and facility presence. The paper assembled this
// from OurAirports, GeoNames, UN/LOCODE, a licensed iconectiv CLLI feed, and
// PeeringDB; this library ships an embedded world atlas with the same schema
// (geo/builtin_data.cc) and can load the real feeds from CSV
// (geo/dictionary_io.h).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geo/location.h"
#include "util/hash.h"
#include "util/strings.h"

namespace hoiho::geo {

// The dictionary a geohint code is interpreted against. kCountryCode and
// kStateCode are annotation hints that accompany a primary geohint (paper
// figure 6a: "lhr, uk"), or stand alone for operators with a limited
// footprint.
enum class HintType : std::uint8_t {
  kIata,         // 3-letter airport code
  kIcao,         // 4-letter airport code
  kLocode,       // 5-letter UN/LOCODE (2-letter country + 3-letter place)
  kClli,         // 6-letter CLLI prefix (4-letter city + 2-letter state/country)
  kCityName,     // squashed city/town name ("ashburn", "newyork")
  kFacility,     // squashed facility street address ("1118thave", "529bryant")
  kCountryCode,  // ISO-3166 alpha-2 ("us", with uk==gb)
  kStateCode,    // ISO-3166-2 subdivision ("va")
};

// Short stable name for a hint type ("iata", "clli", ...).
std::string_view to_string(HintType t);

// Expected code length for fixed-width hint types; 0 for variable width.
std::size_t code_length(HintType t);

// Codes of every fixed-width type attached to one location, used by the
// synthetic Internet generator and the benches (reverse lookups).
struct LocationCodes {
  std::vector<std::string> iata;
  std::vector<std::string> icao;
  std::vector<std::string> locode;
  std::vector<std::string> clli;
};

class GeoDictionary {
 public:
  GeoDictionary() = default;

  // --- construction -------------------------------------------------------

  // Adds a location record; returns its id. City-name and country/state
  // indexes are updated automatically.
  LocationId add_location(Location loc);

  // Registers `code` (lower-case) of the given fixed-width type for `id`.
  // Ignores codes whose length does not match the type.
  void add_code(HintType type, std::string_view code, LocationId id);

  // Registers a facility street address for `id`; the address is squashed to
  // its alphanumeric characters for lookup ("111 8th Ave" -> "1118thave").
  void add_facility_address(std::string_view address, LocationId id);

  // Registers an extra name for a location (e.g. a local-language name).
  void add_city_alias(std::string_view name, LocationId id);

  // --- lookup -------------------------------------------------------------

  const Location& location(LocationId id) const { return locations_[id]; }
  std::size_t size() const { return locations_.size(); }
  std::span<const Location> all_locations() const { return locations_; }

  // Locations a code maps to under one dictionary; empty if none.
  // For kCityName the code must be in squashed form; for kFacility in
  // squashed-address form. kCountryCode/kStateCode return no locations (use
  // country_known / state_known / matches_country / matches_state).
  std::span<const LocationId> lookup(HintType type, std::string_view code) const;

  // True if `cc` is a known ISO-3166 country code (uk accepted for gb).
  bool country_known(std::string_view cc) const;

  // True if `st` is a known subdivision code of country `cc`.
  bool state_known(std::string_view cc, std::string_view st) const;

  // True if `st` is a known subdivision code of any country.
  bool any_state_known(std::string_view st) const;

  // True if token `cc` names the country of `id` (uk==gb).
  bool matches_country(std::string_view cc, LocationId id) const;

  // True if token `st` names the state of `id`.
  bool matches_state(std::string_view st, LocationId id) const;

  // Reverse lookup: codes registered for a location.
  const LocationCodes& codes(LocationId id) const { return codes_[id]; }

  // Squashed facility addresses registered for a location.
  std::span<const std::string> facility_addresses(LocationId id) const;

  // All locations whose place name `abbrev` plausibly abbreviates (§5.4).
  // Only locations whose name starts with abbrev[0] are tested (the
  // first-char rule), against word splits precomputed at add_location time.
  std::vector<LocationId> abbreviation_candidates(std::string_view abbrev,
                                                  const AbbrevOptions& opts = {}) const;

  // FNV-1a over everything the add_* calls put in, in call order: equal for
  // two dictionaries built alike, different after any edit, including one
  // that keeps the size (a moved coordinate). Keys the learner's result
  // store (io/checkpoint.h), whose results are only valid for one
  // dictionary.
  std::uint64_t content_hash() const { return content_.value(); }

 private:
  // String maps are probed with string_view keys (transparent hash) so hot
  // lookups don't allocate a canonical copy.
  using CodeMap = std::unordered_map<std::string, std::vector<LocationId>,
                                     util::TransparentStringHash, std::equal_to<>>;
  using CodeSet =
      std::unordered_set<std::string, util::TransparentStringHash, std::equal_to<>>;

  std::vector<Location> locations_;
  std::vector<LocationCodes> codes_;
  std::vector<std::vector<std::string>> facility_addrs_;  // per location
  std::vector<PlaceAbbrevIndex> abbrev_index_;            // per location
  std::array<std::vector<LocationId>, 26> abbrev_first_;  // ids by name first letter

  CodeMap iata_;
  CodeMap icao_;
  CodeMap locode_;
  CodeMap clli_;
  CodeMap city_;
  CodeMap facility_;
  CodeSet countries_;
  CodeSet states_;            // "cc/st"
  CodeSet states_any_;        // "st"
  util::Fnv1a content_;       // see content_hash()

  const CodeMap* map_for(HintType t) const;
  CodeMap* map_for(HintType t);
};

// Returns the dictionary built from the embedded world atlas (~320 real
// cities; see geo/builtin_data.cc). Built once, then shared.
const GeoDictionary& builtin_dictionary();

}  // namespace hoiho::geo
