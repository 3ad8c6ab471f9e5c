// Incremental relearning (DESIGN.md §16).
//
// Production hostname sets churn daily: PTR records are re-resolved, POPs
// come and go, RTT campaigns refresh. The batch pipeline would relearn
// every suffix from scratch; the incremental path relearns only what
// changed. Three artifacts make that sound:
//
//   - Every SuffixResult carries a content fingerprint — an FNV-1a hash of
//     the suffix's hostnames and its routers' RTT rows (suffix_fingerprint).
//     Because the method is per-suffix (paper §5), an unchanged fingerprint
//     means the suffix's learned convention is unchanged byte-for-byte.
//   - A PriorRun is the previous run's fingerprinted results plus the
//     learner-config and VP-set signatures they were produced under.
//     Hoiho::run_delta diffs an incoming WorldDelta (the changed suffixes,
//     rendered as one self-contained batch, plus removals) against it and
//     re-runs only the dirty suffixes.
//   - The output is a ModelDelta: base-generation id + per-suffix
//     add/replace/remove records, serialized with the same FNV checksum
//     footer as model files, that serve::ModelStore::apply_delta applies
//     without a full reload (structurally sharing unchanged matchers).
//
// Byte-identity contract: model files are written in canonical order
// (sort_conventions — sorted by suffix), so a delta applied to the base
// model reproduces, byte for byte, the file a from-scratch run over the
// churned world would save. Ordering by key is what makes "insert" well
// defined without the store knowing stream positions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/hoiho.h"
#include "core/nc_io.h"
#include "io/suffix_stream.h"

namespace hoiho::io {
struct LoadReport;
}

namespace hoiho::core {

// Content fingerprint of one suffix: FNV-1a over the suffix, its hostnames
// (in group order), the VP count, and each distinct router's RTT row.
// Equal fingerprints ⇒ the learner would produce an identical SuffixResult
// (per-suffix independence), so the prior result can be reused verbatim.
// Never returns 0 (0 is the "unknown, always dirty" sentinel stored by
// pre-fingerprint checkpoints).
std::uint64_t suffix_fingerprint(const topo::SuffixGroup& group,
                                 const measure::Measurements& meas);

// Fingerprint of the measurement campaign's VP set (names, countries,
// coordinates, order). A changed VP set invalidates every suffix — the
// expected-RTT geometry moved — so run_delta rejects rather than reuses.
std::uint64_t vp_set_hash(const std::vector<measure::VantagePoint>& vps);

// Fingerprint of every HoihoConfig knob that shapes learned output (the
// config half of the checkpoint signature; stream identity excluded).
// Output-invariant knobs — threads, observability sinks — are excluded, so
// a prior run taken at threads=8 serves a delta run at threads=1.
std::uint64_t learn_signature(const HoihoConfig& config, std::size_t dict_size);

// Canonical model order: sorted by suffix (duplicates keep input order).
// save paths apply this before serializing so that merge-by-suffix delta
// application reproduces from-scratch bytes exactly.
void sort_conventions(std::vector<StoredConvention>& conventions);

// The previous run, packaged for diffing: fingerprinted per-suffix results
// plus the signatures they are only valid under.
struct PriorRun {
  std::uint64_t learn_sig = 0;   // learn_signature at capture time
  std::uint64_t vp_hash = 0;     // vp_set_hash of the campaign
  std::uint64_t generation = 0;  // serving generation the run published (0 = none)
  std::vector<SuffixResult> results;  // stream order, compacted

  // Takes ownership of `result` and indexes it. `generation` ties the
  // eventual ModelDelta to the serving lineage.
  static PriorRun capture(HoihoResult result, const HoihoConfig& config,
                          std::size_t dict_size,
                          const std::vector<measure::VantagePoint>& vps,
                          std::uint64_t generation = 0);

  // The prior result for `suffix`, or nullptr. O(1).
  const SuffixResult* find(std::string_view suffix) const;

  // Rebuilds the suffix index after direct edits to `results`.
  void reindex();

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::size_t, SvHash, std::equal_to<>> index_;
};

// An incoming change-set: the changed/added suffixes rendered as one
// self-contained batch (the same shape a SuffixStream emits — topology and
// RTT rows scoped to those routers, campaign-wide VP set), plus the
// suffixes that left the world entirely. Cost of building and diffing one
// is proportional to the churn, never to the world.
struct WorldDelta {
  io::SuffixBatch changed;
  std::vector<std::string> removed;
};

// A versioned model change-set: what ModelStore::apply_delta consumes.
// `upserts` add or replace whole conventions (all classes, matching model
// files' coverage); `removes` drop suffixes from the model. Only valid
// against the generation it was diffed from.
struct ModelDelta {
  std::uint64_t base_generation = 0;
  std::vector<std::string> removes;       // canonical (sorted) order
  std::vector<StoredConvention> upserts;  // canonical (sorted) order

  bool empty() const { return removes.empty() && upserts.empty(); }
};

// What Hoiho::run_delta returns: the merged result set (reused + relearned,
// equal to what a from-scratch run over the churned world would produce,
// modulo compaction) plus the ModelDelta and the diff accounting.
struct DeltaRunReport {
  HoihoResult result;
  ModelDelta delta;
  std::size_t dirty = 0;    // suffixes relearned (fingerprint changed)
  std::size_t reused = 0;   // suffixes whose prior result was reused
  std::size_t added = 0;    // suffixes not present in the prior run
  std::size_t removed = 0;  // suffixes dropped from the world
  double relearn_wall_ms = 0;  // wall time spent re-running dirty suffixes
  std::string error;           // non-empty: prior incompatible, nothing ran

  bool ok() const { return error.empty(); }
};

// --- ModelDelta serialization -------------------------------------------
//
//   # hoiho-geo model delta v1
//   D,<base_generation>,<upsert_count>,<remove_count>
//   -,<suffix>                         one per remove
//   S,<suffix>,<class>                 upsert blocks, exactly the model
//   R,<plan>,<regex>                   file records (nc_io.h)
//   L,<type>,<code>,<city>,<state>,<country>
//   # checksum,fnv1a,<hex16>
//
// Unlike model files (where the footer is optional for hand-written
// interop), a delta REQUIRES the footer: a torn delta must never publish,
// and the chaos drill depends on truncation being detected.

inline constexpr std::string_view kModelDeltaMagic = "# hoiho-geo model delta v1";

// Format sniff: true iff `head` begins with the delta magic line.
bool is_model_delta(std::string_view head);

std::string serialize_model_delta(const ModelDelta& delta, const geo::GeoDictionary& dict);

// serialize + crash-safe publish (write_model_file_atomic).
bool save_model_delta_to_file(const std::string& path, const ModelDelta& delta,
                              const geo::GeoDictionary& dict, std::string* error = nullptr);

// Strict load with the same limits/accounting contract as load_conventions;
// any structural violation (bad record, checksum mismatch, missing footer,
// count mismatch against the D header) fails with a named error, mirrored
// into *report.
std::optional<ModelDelta> load_model_delta(std::istream& in, const geo::GeoDictionary& dict,
                                           std::string* error,
                                           std::vector<std::string>* warnings = nullptr,
                                           const LoadLimits& limits = {},
                                           io::LoadReport* report = nullptr);

}  // namespace hoiho::core
