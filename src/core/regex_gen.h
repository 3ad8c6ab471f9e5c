// Stage 3 (generation half): build candidate geo-regexes from tagged
// hostnames (paper appendix A, phases 1-3).
//
// Phase 1 (generate base regexes): for every (hostname, apparent-hint) pair,
// emit anchored regexes that capture the hint with the class its role
// implies ([a-z]{3} for IATA, [a-z]+ for city names, ...), render the rest
// of the hint's label at character-kind granularity, and cover other labels
// coarsely ([^\.]+ per label, or one .+ for everything left of the hint).
// Variants with and without captures for adjacent state/country codes are
// both produced; evaluation decides.
//
// Phase 2 (merge): two regexes with the same plan that differ only in one
// having an extra \d+ component merge into one with \d* at that position.
//
// Phase 3 (embed character classes): coarse components are replaced by the
// character-kind sequence they actually matched across all matching
// hostnames ([^\.]+ -> \d+, [a-z]+\d+, [a-z]{2}, ...), when that sequence is
// uniform.
#pragma once

#include <span>

#include "core/geohint.h"

namespace hoiho::core {

struct GenConfig {
  // Also emit variants that do not capture apparent annotations (they lose
  // on FNs but can win when annotation tagging was spurious).
  bool annotation_free_variants = true;
};

class RegexGenerator {
 public:
  explicit RegexGenerator(GenConfig config = {}) : config_(config) {}

  // Phase 1 over a whole suffix group; result is deduplicated.
  std::vector<GeoRegex> generate_base(std::span<const TaggedHostname> tagged) const;

  // Phase 1 for a single hostname/hint pair (exposed for tests).
  std::vector<GeoRegex> generate_for_hint(const dns::Hostname& host,
                                          const ApparentHint& hint) const;

  // Phase 2: all merge products over `regexes` (not including the inputs).
  std::vector<GeoRegex> merge(std::span<const GeoRegex> regexes) const;

  // Phase 3: refined version of `gr`, or nullopt if nothing could be
  // refined (fewer than two matching hostnames, or non-uniform classes).
  std::optional<GeoRegex> embed_classes(const GeoRegex& gr,
                                        std::span<const TaggedHostname> tagged) const;

 private:
  GenConfig config_;
};

// Removes duplicates (same printed regex + same plan), preserving order.
void dedup_regexes(std::vector<GeoRegex>& regexes);

}  // namespace hoiho::core
