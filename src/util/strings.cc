#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace hoiho::util {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool is_lower(std::string_view s) {
  for (char c : s)
    if (c >= 'A' && c <= 'Z') return false;
  return true;
}

bool is_all_alpha(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  return true;
}

bool is_all_digit(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

bool is_all_alnum(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) return false;
  return true;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string_view> split(std::string_view s, std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_keep_empty(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

CharKind char_kind(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  if (std::isalpha(u)) return CharKind::kAlpha;
  if (std::isdigit(u)) return CharKind::kDigit;
  return CharKind::kPunct;
}

namespace {

template <typename Pred>
std::vector<Token> runs_where(std::string_view s, Pred pred) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (!pred(s[i])) {
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < s.size() && pred(s[i])) ++i;
    out.push_back(Token{s.substr(start, i - start), start, i});
  }
  return out;
}

}  // namespace

std::vector<Token> split_tokens(std::string_view s, char delim) {
  std::vector<Token> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      if (i > start) out.push_back(Token{s.substr(start, i - start), start, i});
      start = i + 1;
    }
  }
  return out;
}

std::vector<Token> alpha_runs(std::string_view s) {
  return runs_where(s, [](char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0; });
}

std::vector<Token> alnum_runs(std::string_view s) {
  return runs_where(s, [](char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; });
}

std::vector<Token> kind_runs(std::string_view s) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < s.size()) {
    CharKind k = char_kind(s[i]);
    std::size_t start = i;
    while (i < s.size() && char_kind(s[i]) == k) ++i;
    out.push_back(Token{s.substr(start, i - start), start, i});
  }
  return out;
}

std::string squash_alnum(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) out.push_back(static_cast<char>(std::tolower(u)));
  }
  return out;
}

std::string regex_escape(std::string_view s) {
  static constexpr std::string_view kMeta = ".^$*+?()[]{}|\\";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (kMeta.find(c) != std::string_view::npos) out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_pct(double num, double den, int decimals) {
  if (den <= 0) return "-";
  return fmt_double(100.0 * num / den, decimals) + "%";
}

std::string fmt_count(std::uint64_t n) {
  if (n >= 10'000'000) return fmt_double(static_cast<double>(n) / 1e6, 1) + "M";
  if (n >= 1'000'000) return fmt_double(static_cast<double>(n) / 1e6, 2) + "M";
  if (n >= 10'000) return std::to_string(n / 1000) + "K";
  return std::to_string(n);
}

}  // namespace hoiho::util
