// Serialization for learned naming conventions.
//
// The paper's authors published their inferred regexes on a public website
// so that researchers without measurement infrastructure can geolocate
// hostnames. This module is that artifact: save_conventions() writes every
// usable convention (regexes, plans, classifications, learned geohints) in
// a line-oriented text format, and load_conventions() reconstructs a set of
// NamingConventions ready to drop into a Geolocator.
//
// Format ('#' comments allowed):
//   S,<suffix>,<class>                  starts a convention block
//   R,<plan>,<regex>                    plan is comma-free: "iata" or "city+cc"
//   L,<dict-type>,<code>,<city>,<state>,<country>   learned geohint
// Learned geohints are stored by place so files survive dictionary rebuilds;
// load resolves them against the dictionary given at load time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/geohint.h"
#include "geo/dictionary.h"
#include "util/hash.h"

namespace hoiho::io {
struct LoadReport;
}

namespace hoiho::core {

// FNV-1a 64 over raw bytes — the integrity hash behind the
// "# checksum,fnv1a,<16 hex>" footer. Shared by model files
// (save_conventions_to_file), the streaming-checkpoint WAL and manifest
// (io/checkpoint), and the serving generation archive (serve::ModelStore),
// so every durable artifact carries the same torn-write detector.
inline constexpr std::uint64_t kFnvSeed = util::Fnv1a::kSeed;
std::uint64_t fnv1a_hash(std::string_view bytes, std::uint64_t h = kFnvSeed);

// Renders / parses the footer line itself (no trailing newline). The hash
// covers every byte above the footer, each line hashed with its '\n'.
std::string checksum_footer_line(std::uint64_t hash);
std::optional<std::uint64_t> parse_checksum_footer(std::string_view line);

// Resolves a stored (city, state, country) place triple against the
// load-time dictionary — the shared rule for L records and checkpointed
// learned hints: city-name lookup on the squashed name, filtered by
// country and (when stored) lowercased state. Returns kInvalidLocation
// when the place is not in `dict`.
geo::LocationId resolve_stored_place(const geo::GeoDictionary& dict, std::string_view city,
                                     std::string_view state, std::string_view country);

// One serialized convention with its stage-5 classification.
struct StoredConvention {
  NamingConvention nc;
  NcClass cls = NcClass::kPoor;
};

// Writes `conventions` in the format above. `dict` is the dictionary the
// conventions were learned against (needed to spell out learned places).
void save_conventions(std::ostream& out, const std::vector<StoredConvention>& conventions,
                      const geo::GeoDictionary& dict);

// The text model file's bytes: save_conventions output plus a
// "# checksum,fnv1a,<hex>" footer over everything above it, which
// load_conventions verifies when present — a torn or bit-flipped file is
// rejected as a named error instead of silently loading a prefix. The text
// twin of serialize_conventions_ncb.
std::string serialize_conventions(const std::vector<StoredConvention>& conventions,
                                  const geo::GeoDictionary& dict);

// Crash-safe raw-byte publish shared by the text and binary model savers,
// the delta writer and the serving generation archive:
// util::write_file_atomic (tmp + fsync + rename + directory fsync), so a
// reader never observes a half-written model. Honors the "nc.save"
// failpoint (chaos coverage for every model-publish path). False with
// *error on any I/O failure (the tmp file is removed).
bool write_model_file_atomic(const std::string& path, std::string_view data,
                             std::string* error = nullptr);

// serialize_conventions + write_model_file_atomic: the crash-safe save for
// files the daemon hot-reloads. False with *error on any I/O failure.
bool save_conventions_to_file(const std::string& path,
                              const std::vector<StoredConvention>& conventions,
                              const geo::GeoDictionary& dict, std::string* error = nullptr);

// Hard limits the loader enforces. Model files are untrusted input (the
// daemon hot-reloads whatever is on disk), so every field is bounded and
// every violation is a named error, never a silent mis-parse.
struct LoadLimits {
  std::size_t max_line = 64 * 1024;   // bytes per physical line
  std::size_t max_suffix = 255;       // DNS limit
  std::size_t max_regex = 4096;
  std::size_t max_plan = 256;
  std::size_t max_code = 64;          // learned geohint code
  std::size_t max_place = 256;        // city/state/country fields
  std::size_t max_conventions = 1u << 20;
};

// Parses conventions, resolving learned geohints against `dict`. Learned
// entries whose place is not in `dict` are dropped (with a note appended to
// *warnings if non-null); duplicate suffix blocks and conventions without
// regexes also produce warnings. Returns std::nullopt with a message in
// *error on malformed input: wrong field counts, unknown record/class/plan
// tokens, regexes outside the dialect, plan/capture mismatches, oversized
// fields (see LoadLimits), control bytes, a stream read failure, a
// checksum-footer mismatch (files written by save_conventions_to_file;
// files without a footer are accepted unverified for compatibility), or any
// bytes after the footer — the checksum covers everything above it, so a
// trailing line (even a blank one) is unverified input and is rejected as
// "bytes after checksum footer" rather than silently accepted.
//
// `report`, if non-null, is filled in either way: lines scanned, records
// accepted, the failure message (LoadReport::error), and a
// "trailing_garbage" skip entry counting post-footer lines.
std::optional<std::vector<StoredConvention>> load_conventions(
    std::istream& in, const geo::GeoDictionary& dict, std::string* error = nullptr,
    std::vector<std::string>* warnings = nullptr, const LoadLimits& limits = {},
    io::LoadReport* report = nullptr);

// Writes one convention block (the S record plus its R/L records) — the
// unit save_conventions emits per convention and the model-delta format
// reuses for upsert records.
void save_convention_block(std::ostream& out, const StoredConvention& sc,
                           const geo::GeoDictionary& dict);

// Structural validity of a stored suffix field: dot-separated labels of
// hostname-legal characters, no leading/trailing dot. The file stores what
// save wrote, which came from parsed hostnames — anything else is
// corruption.
bool plausible_suffix(std::string_view s);

// True if any byte falls outside printable ASCII. The model formats are
// ASCII-only; control characters or high bytes can only come from
// corruption, and the regex engine's 128-wide character classes must never
// see them.
bool has_control_bytes(std::string_view s);

// Record-level parser for S/R/L convention rows, shared by
// load_conventions and the model-delta loader (core/delta.h) so both
// formats validate blocks under exactly the same rules — field counts,
// limits, plan/capture agreement, place resolution, duplicate-suffix and
// truncated-block warnings. Feed parsed CSV rows in file order; the
// accumulated conventions come out of take().
class ConventionReader {
 public:
  // All three references/pointers must outlive the reader; `warnings` may
  // be null.
  ConventionReader(const geo::GeoDictionary& dict, const LoadLimits& limits,
                   std::vector<std::string>* warnings);

  // Handles one "S"/"R"/"L" row (any other record type is an error).
  // `where` ("line N") prefixes warnings; errors are returned bare in
  // *error for the caller to contextualize. False on malformed records.
  bool feed(const std::vector<std::string>& row, const std::string& where,
            std::string* error);

  // Runs the end-of-input check (trailing regex-less block note) and
  // returns the accumulated conventions.
  std::vector<StoredConvention> take();

  std::size_t count() const { return out_.size(); }

 private:
  const geo::GeoDictionary& dict_;
  const LoadLimits& limits_;
  std::vector<std::string>* warnings_;
  std::vector<StoredConvention> out_;
};

// Plan <-> string helpers ("iata", "city+cc+st").
std::string plan_to_token(const Plan& plan);
std::optional<Plan> plan_from_token(std::string_view token);

// Token -> enum parsers for the shared record dialect (L/H record dict
// types, S/X record classes); nullopt on unknown tokens. The inverse is
// to_string() on the enum.
std::optional<geo::HintType> hint_type_from_token(std::string_view token);
std::optional<NcClass> nc_class_from_token(std::string_view token);

}  // namespace hoiho::core
