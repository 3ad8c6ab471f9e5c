// Core types shared by the five stages of the Hoiho-geo method:
// apparent geohints (stage 2), geo-regexes with interpretation plans and
// naming conventions (stage 3), learned per-suffix geohints (stage 4), and
// convention classifications (stage 5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/dictionary.h"
#include "regex/ast.h"
#include "regex/matcher.h"
#include "topo/topology.h"

namespace hoiho::core {

// The role a capture group plays in a regex's interpretation plan.
// kClli4/kClli2 are the two halves of a split CLLI prefix (paper fig. 6e);
// their captures are concatenated before dictionary lookup.
enum class Role : std::uint8_t {
  kIata,
  kIcao,
  kLocode,
  kClli,
  kClli4,
  kClli2,
  kCityName,
  kFacility,
  kCountryCode,
  kStateCode,
};

std::string_view to_string(Role r);

// True for roles that annotate a primary geohint rather than carry one.
inline bool is_annotation(Role r) {
  return r == Role::kCountryCode || r == Role::kStateCode;
}

// The dictionary used to interpret a primary role's capture.
geo::HintType dictionary_for(Role r);

// --- Stage 2: apparent geohints ---------------------------------------------

// A state/country code adjacent to an apparent geohint that matches one of
// its candidate locations ("lhr, uk" in paper fig. 6a).
struct HintAnnotation {
  Role role = Role::kCountryCode;  // kCountryCode or kStateCode
  std::string code;                // as it appears, e.g. "uk"
  std::size_t begin = 0, end = 0;  // char range in the full hostname
};

// An apparent geohint: a dictionary hit in the hostname whose location(s)
// are RTT-consistent for the router.
struct ApparentHint {
  Role role = Role::kIata;              // dictionary the code hit
  std::string code;                     // geohint string (lower-case)
  std::size_t begin = 0, end = 0;       // char range in the full hostname
  std::vector<geo::LocationId> locations;  // RTT-consistent candidates
  std::vector<HintAnnotation> annotations;
  bool split_clli = false;              // assembled from adjacent 4+2 tokens
};

// Stage-2 result for one hostname.
struct TaggedHostname {
  topo::HostnameRef ref;
  std::vector<ApparentHint> hints;  // empty if no apparent geohint

  bool has_hint() const { return !hints.empty(); }
};

// --- Stage 3: regexes, plans, conventions ------------------------------------

// Interpretation plan: the role of each capture group, in group order.
struct Plan {
  std::vector<Role> roles;

  // The plan's primary (non-annotation) role; plans always have exactly one
  // primary geohint (kClli4+kClli2 count as one, reported as kClli).
  Role primary() const;

  bool extracts(Role r) const;
  std::string to_string() const;  // e.g. "iata" or "city,cc"

  friend bool operator==(const Plan&, const Plan&) = default;
};

// A regex plus the plan to decode what it extracts.
struct GeoRegex {
  rx::Regex regex;
  Plan plan;

  std::string to_string() const { return regex.to_string(); }
};

// Key for a learned (suffix-specific) geohint: dictionary type + code.
using LearnedKey = std::pair<geo::HintType, std::string>;

// Stage-5 classification of a naming convention (paper §5.5).
enum class NcClass : std::uint8_t { kGood, kPromising, kPoor };
std::string_view to_string(NcClass c);

// A naming convention: one or more regexes that extract geohints for one
// suffix, plus the per-suffix geohints learned in stage 4. Regexes are
// applied in order; the first that matches a hostname interprets it.
struct NamingConvention {
  std::string suffix;
  std::vector<GeoRegex> regexes;
  std::map<LearnedKey, geo::LocationId> learned;

  bool empty() const { return regexes.empty(); }

  // True if any regex's plan extracts a country or state code.
  bool extracts_annotation() const;
};

// The decoded output of applying a naming convention to one hostname:
// which regex matched and the code / annotations its captures carried.
// Facility codes are already squashed to their alphanumeric form; split
// CLLI captures are already concatenated.
struct Extraction {
  int regex_index = -1;
  Role primary = Role::kIata;
  std::string code;
  std::string cc, st;
};

// Applies `nc` to `host` (first matching regex wins) on the AST
// backtracker (rx::match); nullopt if no regex matches or the match yields
// no primary code. When `budget_exhausted` is non-null it is set to true if
// any regex abandoned its match on the backtracking work bound (the nullopt
// is then inconclusive). The pipeline runs the compiled engine; this is the
// oracle tests hold it to (tests/test_regex_differential.cc).
std::optional<Extraction> extract(const NamingConvention& nc, const dns::Hostname& host,
                                  bool* budget_exhausted = nullptr);

// Decodes the capture spans of `gr` (regex number `index` within its NC) on
// `subject` into an Extraction; nullopt when the plan yields no primary
// code. Shared by the interpreted path (extract) and the compiled engine
// paths (Evaluator, Geolocator), so all of them agree byte-for-byte.
std::optional<Extraction> decode_extraction(const GeoRegex& gr, int index,
                                            std::string_view subject,
                                            std::span<const rx::Capture> caps);

}  // namespace hoiho::core
