#include "core/regex_gen.h"

#include <algorithm>
#include <unordered_set>

#include "regex/program.h"
#include "util/strings.h"

namespace hoiho::core {

namespace {

using rx::CharClass;
using rx::Quant;
using rx::RegexBuilder;

// A capture to be emitted at a specific position of the hostname.
struct CaptureSpec {
  std::size_t begin = 0, end = 0;
  Role role = Role::kIata;
};

// Emits the group nodes for one capture spec.
void emit_capture(RegexBuilder& b, std::string_view full, const CaptureSpec& spec) {
  b.begin_group();
  const std::size_t len = spec.end - spec.begin;
  switch (spec.role) {
    case Role::kCityName:
      b.cls(CharClass::alpha(), Quant::plus());
      break;
    case Role::kFacility: {
      // Render the captured range at kind granularity (it may mix digits,
      // letters and punctuation: "529bryant", "111-8th-ave").
      const std::string_view text = full.substr(spec.begin, len);
      for (const util::Token& run : util::kind_runs(text)) {
        switch (util::char_kind(run.text[0])) {
          case util::CharKind::kAlpha: b.cls(CharClass::alpha(), Quant::plus()); break;
          case util::CharKind::kDigit: b.cls(CharClass::digit(), Quant::plus()); break;
          case util::CharKind::kPunct: b.lit(run.text); break;
        }
      }
      break;
    }
    default:
      // Fixed-width codes: IATA {3}, ICAO {4}, LOCODE {5}, CLLI {6},
      // CLLI4 {4}, CLLI2 {2}, country/state {2}.
      b.cls(CharClass::alpha(), Quant::exactly(static_cast<int>(len)));
      break;
  }
  b.end_group();
}

// Renders label [lbegin, lend) of `full` at character-kind granularity,
// emitting capture groups where specs fall. Appends the roles of emitted
// captures to `roles`.
void render_label_fine(RegexBuilder& b, std::string_view full, std::size_t lbegin,
                       std::size_t lend, std::span<const CaptureSpec> specs,
                       std::vector<Role>& roles) {
  std::size_t pos = lbegin;
  while (pos < lend) {
    // Is there a capture starting at or after pos within this label?
    const CaptureSpec* next_cap = nullptr;
    for (const CaptureSpec& s : specs) {
      if (s.begin >= pos && s.begin < lend && (next_cap == nullptr || s.begin < next_cap->begin))
        next_cap = &s;
    }
    const std::size_t stop = next_cap != nullptr ? next_cap->begin : lend;
    // Render non-captured runs in [pos, stop).
    std::string_view gap = full.substr(pos, stop - pos);
    for (const util::Token& run : util::kind_runs(gap)) {
      const bool truncated_by_cap = next_cap != nullptr && pos + run.end == stop &&
                                    util::char_kind(run.text[0]) ==
                                        util::char_kind(full[stop]);
      switch (util::char_kind(run.text[0])) {
        case util::CharKind::kAlpha:
          // An alpha run truncated by a following capture of the same kind
          // cannot be rendered [a-z]+ (it would steal the capture's
          // characters) — render it with an exact width.
          b.cls(CharClass::alpha(), truncated_by_cap
                                        ? Quant::exactly(static_cast<int>(run.size()))
                                        : Quant::plus());
          break;
        case util::CharKind::kDigit:
          b.cls(CharClass::digit(), truncated_by_cap
                                        ? Quant::exactly(static_cast<int>(run.size()))
                                        : Quant::plus());
          break;
        case util::CharKind::kPunct:
          b.lit(run.text);
          break;
      }
    }
    if (next_cap == nullptr) break;
    emit_capture(b, full, *next_cap);
    roles.push_back(next_cap->role);
    pos = next_cap->end;
    // Alpha residue directly after a capture (CLLI prefix of a longer code,
    // paper fig. 6d): consume the rest of the run possessively so the
    // regex stays unambiguous.
    if (pos < lend && util::char_kind(full[pos]) == util::CharKind::kAlpha &&
        util::char_kind(full[pos - 1]) == util::CharKind::kAlpha) {
      std::size_t run_end = pos;
      while (run_end < lend && util::char_kind(full[run_end]) == util::CharKind::kAlpha)
        ++run_end;
      b.cls(CharClass::alpha(), Quant::plus(/*possessive=*/true));
      pos = run_end;
    }
  }
}

}  // namespace

std::vector<GeoRegex> RegexGenerator::generate_for_hint(const dns::Hostname& host,
                                                        const ApparentHint& hint) const {
  std::vector<GeoRegex> out;
  const std::string_view full = host.full;
  const std::string_view prefix = host.prefix();
  if (prefix.empty()) return out;
  const std::vector<util::Token> labels = util::split_tokens(prefix, '.');
  if (labels.empty()) return out;

  // Build the capture-spec variants: with and without annotations.
  std::vector<std::vector<CaptureSpec>> spec_sets;
  {
    std::vector<CaptureSpec> base;
    if (hint.split_clli) {
      base.push_back(CaptureSpec{hint.begin, hint.begin + 4, Role::kClli4});
      base.push_back(CaptureSpec{hint.end - 2, hint.end, Role::kClli2});
    } else {
      base.push_back(CaptureSpec{hint.begin, hint.end, hint.role});
    }
    if (!hint.annotations.empty()) {
      std::vector<CaptureSpec> with_ann = base;
      for (const HintAnnotation& a : hint.annotations)
        with_ann.push_back(CaptureSpec{a.begin, a.end, a.role});
      std::sort(with_ann.begin(), with_ann.end(),
                [](const CaptureSpec& x, const CaptureSpec& y) { return x.begin < y.begin; });
      spec_sets.push_back(std::move(with_ann));
    }
    if (hint.annotations.empty() || config_.annotation_free_variants)
      spec_sets.push_back(std::move(base));
  }

  for (const std::vector<CaptureSpec>& specs : spec_sets) {
    // Index of the first label containing a capture.
    std::size_t first_cap_label = labels.size();
    for (std::size_t i = 0; i < labels.size(); ++i) {
      for (const CaptureSpec& s : specs) {
        if (s.begin >= labels[i].begin && s.begin < labels[i].end) {
          first_cap_label = std::min(first_cap_label, i);
        }
      }
    }
    if (first_cap_label == labels.size()) continue;

    for (const bool fold_leading : {true, false}) {
      if (fold_leading && first_cap_label == 0) continue;  // identical to unfolded
      RegexBuilder b;
      std::vector<Role> roles;
      std::size_t start_label = 0;
      if (fold_leading) {
        b.any_plus();
        b.lit(".");
        start_label = first_cap_label;
      }
      for (std::size_t i = start_label; i < labels.size(); ++i) {
        if (i > start_label) b.lit(".");
        const util::Token& label = labels[i];
        bool has_cap = false;
        for (const CaptureSpec& s : specs)
          if (s.begin >= label.begin && s.begin < label.end) has_cap = true;
        if (has_cap) {
          render_label_fine(b, full, label.begin, label.end, specs, roles);
        } else {
          b.cls(CharClass::not_chars("."), Quant::plus());
        }
      }
      b.lit(".");
      b.lit(host.suffix());
      GeoRegex gr;
      gr.regex = std::move(b).build();
      gr.plan.roles = roles;
      out.push_back(std::move(gr));
    }
  }
  return out;
}

void dedup_regexes(std::vector<GeoRegex>& regexes) {
  std::unordered_set<std::string> seen;
  std::vector<GeoRegex> unique;
  unique.reserve(regexes.size());
  for (GeoRegex& gr : regexes) {
    std::string key = gr.regex.to_string() + "|" + gr.plan.to_string();
    if (seen.insert(std::move(key)).second) unique.push_back(std::move(gr));
  }
  regexes = std::move(unique);
}

std::vector<GeoRegex> RegexGenerator::generate_base(
    std::span<const TaggedHostname> tagged) const {
  std::vector<GeoRegex> out;
  for (const TaggedHostname& th : tagged) {
    for (const ApparentHint& hint : th.hints) {
      std::vector<GeoRegex> gen = generate_for_hint(*th.ref.hostname, hint);
      for (GeoRegex& gr : gen) out.push_back(std::move(gr));
    }
  }
  dedup_regexes(out);
  return out;
}

namespace {

// True if node `i` of `r` lies inside any capture group.
bool in_group(const rx::Regex& r, std::size_t i) {
  for (const rx::Group& g : r.groups)
    if (i >= g.first && i <= g.last) return true;
  return false;
}

bool is_digit_plus(const rx::Node& n) {
  return n.kind == rx::Node::Kind::kClass && n.cls == CharClass::digit() &&
         n.quant == Quant::plus();
}

}  // namespace

std::vector<GeoRegex> RegexGenerator::merge(std::span<const GeoRegex> regexes) const {
  std::vector<GeoRegex> out;
  for (std::size_t i = 0; i < regexes.size(); ++i) {
    for (std::size_t j = 0; j < regexes.size(); ++j) {
      if (i == j) continue;
      const GeoRegex& big = regexes[i];
      const GeoRegex& small = regexes[j];
      if (!(big.plan == small.plan)) continue;
      if (big.regex.nodes.size() != small.regex.nodes.size() + 1) continue;
      // Find the lone \d+ node of `big` (outside groups) whose removal
      // yields `small`.
      for (std::size_t k = 0; k < big.regex.nodes.size(); ++k) {
        if (!is_digit_plus(big.regex.nodes[k]) || in_group(big.regex, k)) continue;
        // Compare node lists with k removed.
        bool equal = true;
        for (std::size_t m = 0; m + 1 < big.regex.nodes.size() && equal; ++m) {
          const std::size_t bm = m < k ? m : m + 1;
          if (!(big.regex.nodes[bm] == small.regex.nodes[m])) equal = false;
        }
        if (!equal) continue;
        // Compare groups after shifting indexes above k down by one.
        if (big.regex.groups.size() != small.regex.groups.size()) continue;
        bool groups_equal = true;
        for (std::size_t g = 0; g < big.regex.groups.size(); ++g) {
          rx::Group shifted = big.regex.groups[g];
          if (shifted.first > k) --shifted.first;
          if (shifted.last > k) --shifted.last;
          if (!(shifted == small.regex.groups[g])) groups_equal = false;
        }
        if (!groups_equal) continue;
        GeoRegex merged = big;
        merged.regex.nodes[k].quant = Quant::star();
        out.push_back(std::move(merged));
        break;
      }
    }
  }
  dedup_regexes(out);
  return out;
}

std::optional<GeoRegex> RegexGenerator::embed_classes(
    const GeoRegex& gr, std::span<const TaggedHostname> tagged) const {
  const std::size_t n_nodes = gr.regex.nodes.size();
  // Views, not copies: the spans point into hostname storage (the batch
  // arena), which outlives this call — no per-(node, hostname) allocation.
  std::vector<std::vector<std::string_view>> texts(n_nodes);
  std::size_t matched = 0;
  // Compile once, then one prefiltered run per hostname; the successful
  // path in the scratch is exactly the per-node span list.
  const rx::Program program = rx::Program::compile(gr.regex);
  rx::MatchScratch scratch;
  for (const TaggedHostname& th : tagged) {
    const std::string_view full = th.ref.hostname->full;
    if (!program.match(full, scratch)) continue;
    ++matched;
    for (std::size_t i = 0; i < n_nodes; ++i)
      texts[i].emplace_back(program.node_span(scratch, i).view(full));
  }
  if (matched < 2) return std::nullopt;

  rx::Regex refined;
  refined.nodes.reserve(n_nodes + 4);
  std::vector<std::size_t> new_index(n_nodes + 1, 0);
  bool changed = false;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    new_index[i] = refined.nodes.size();
    const rx::Node& node = gr.regex.nodes[i];
    const bool coarse = node.kind == rx::Node::Kind::kClass && node.cls.repr.size() >= 2 &&
                        node.cls.repr[0] == '[' && node.cls.repr[1] == '^';
    if (!coarse || in_group(gr.regex, i)) {
      refined.nodes.push_back(node);
      continue;
    }
    // Compute the common character-kind sequence of everything this node
    // matched; bail to the coarse node if not uniform.
    std::vector<std::vector<util::Token>> runs;
    runs.reserve(texts[i].size());
    bool uniform = true;
    for (const std::string_view t : texts[i]) {
      runs.push_back(util::kind_runs(t));
      if (runs.back().empty()) uniform = false;
    }
    const std::size_t n_runs = uniform ? runs[0].size() : 0;
    for (const auto& r : runs)
      if (r.size() != n_runs) uniform = false;
    if (uniform) {
      for (std::size_t p = 0; p < n_runs && uniform; ++p) {
        const util::CharKind kind = util::char_kind(runs[0][p].text[0]);
        for (const auto& r : runs)
          if (util::char_kind(r[p].text[0]) != kind) uniform = false;
        if (uniform && kind == util::CharKind::kPunct) {
          for (const auto& r : runs)
            if (r[p].text != runs[0][p].text) uniform = false;
        }
      }
    }
    if (!uniform) {
      refined.nodes.push_back(node);
      continue;
    }
    // Emit the refined sequence.
    const bool single_run = n_runs == 1;
    for (std::size_t p = 0; p < n_runs; ++p) {
      const util::CharKind kind = util::char_kind(runs[0][p].text[0]);
      if (kind == util::CharKind::kPunct) {
        refined.nodes.push_back(rx::Node::lit(runs[0][p].text));
        continue;
      }
      bool same_len = true;
      const std::size_t len0 = runs[0][p].size();
      for (const auto& r : runs)
        if (r[p].size() != len0) same_len = false;
      Quant q = same_len ? Quant::exactly(static_cast<int>(len0)) : Quant::plus();
      if (single_run && node.quant.possessive && !same_len) q.possessive = true;
      refined.nodes.push_back(rx::Node::cls_node(
          kind == util::CharKind::kAlpha ? CharClass::alpha() : CharClass::digit(), q));
    }
    changed = true;
  }
  new_index[n_nodes] = refined.nodes.size();
  if (!changed) return std::nullopt;
  for (const rx::Group& g : gr.regex.groups)
    refined.groups.push_back(rx::Group{new_index[g.first], new_index[g.last + 1] - 1});
  GeoRegex out;
  out.regex = std::move(refined);
  out.plan = gr.plan;
  return out;
}

}  // namespace hoiho::core
