// String helpers shared across the library.
//
// All functions operate on std::string_view and never allocate unless the
// return type requires it. Hostnames in this library are always handled
// lower-cased; to_lower() is the canonicalization entry point.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hoiho::util {

// Returns a lower-cased copy of `s` (ASCII only; hostnames are ASCII).
std::string to_lower(std::string_view s);

// True if `s` contains no ASCII upper-case letter, i.e. to_lower(s) == s.
// Lets hot paths skip the to_lower() allocation for already-canonical keys.
bool is_lower(std::string_view s);

// Transparent hash for unordered containers keyed by std::string but probed
// with string_view (avoids a temporary std::string per lookup). Pair with
// std::equal_to<> as the key-equality functor.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// True if every character of `s` satisfies the predicate implied by the name.
bool is_all_alpha(std::string_view s);
bool is_all_digit(std::string_view s);
bool is_all_alnum(std::string_view s);

// True if `s` ends with / starts with the given affix.
bool ends_with(std::string_view s, std::string_view suffix);
bool starts_with(std::string_view s, std::string_view prefix);

// Splits `s` on any occurrence of a character in `delims`. Empty fields are
// dropped (hostname labels never contain empty tokens we care about).
std::vector<std::string_view> split(std::string_view s, std::string_view delims);

// Splits `s` on any occurrence of a character in `delims`, keeping empty
// fields (needed by CSV-style parsing).
std::vector<std::string_view> split_keep_empty(std::string_view s, char delim);

// Whole-token unsigned decimal: no sign, no surrounding bytes, and nothing
// that overflows 64 bits (which would otherwise wrap or clamp to a valid
// number). nullopt on anything else. Every file and wire format parses its
// counts, indices and generation numbers through this.
std::optional<std::uint64_t> parse_u64(std::string_view s);

// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// A token within a larger string, with its position recorded so regex
// generation can reconstruct the surrounding structure.
struct Token {
  std::string_view text;   // points into the original string
  std::size_t begin = 0;   // offset of first char in original string
  std::size_t end = 0;     // offset one past last char

  std::size_t size() const { return end - begin; }
};

// Character classes used when tokenizing hostnames.
enum class CharKind : std::uint8_t { kAlpha, kDigit, kPunct };

// Classifies an ASCII character for hostname tokenization purposes.
CharKind char_kind(char c);

// Splits `s` on `delim`, dropping empty fields, recording positions.
std::vector<Token> split_tokens(std::string_view s, char delim);

// Returns maximal runs of alphabetic characters in `s`, with positions.
std::vector<Token> alpha_runs(std::string_view s);

// Returns maximal runs of alphanumeric characters (i.e. splits only on
// punctuation), with positions.
std::vector<Token> alnum_runs(std::string_view s);

// Returns maximal runs of same-kind characters (alpha / digit / punct).
std::vector<Token> kind_runs(std::string_view s);

// Lower-cases and strips everything but letters and digits:
// "111-8th-Ave" -> "1118thave". Facility codes use this form.
std::string squash_alnum(std::string_view s);

// Escapes regex metacharacters in `s` so it matches literally in the
// restricted regex dialect (see src/regex/).
std::string regex_escape(std::string_view s);

// Formats `v` with `decimals` digits after the point (printf "%.*f").
std::string fmt_double(double v, int decimals);

// Formats `num`/`den` as a percentage string like "55.0%"; "-" if den == 0.
std::string fmt_pct(double num, double den, int decimals = 1);

// Renders counts like 2560000 as "2.56M", 559000 as "559K", 995 as "995".
std::string fmt_count(std::uint64_t n);

}  // namespace hoiho::util
