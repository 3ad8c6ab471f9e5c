// Streaming suffix ingestion (DESIGN.md §12).
//
// The batch pipeline materializes an entire Topology + Measurements before
// Hoiho::run touches the first suffix — fine for the 48-operator bench
// corpus, fatal for ITDK-class inputs (~1.9M hostnames, ~2.8k suffixes, a
// dense router x VP RTT matrix). A SuffixStream inverts that: the source
// emits self-contained batches of whole suffix groups — each batch owns the
// topology slice and RTT rows for just its routers — and the consumer
// (Hoiho::run_stream) processes and frees one batch while the source
// renders the next. Memory is bounded by the batch hostname budget, never
// by the world size.
//
// Sources implement next_batch(); sim::StreamingWorld is the synthetic one,
// and a file-backed ITDK reader can implement the same interface. The
// accumulated io::LoadReport keeps the lenient-ingestion accounting
// contract (records accepted, categorized skips) identical to the batch
// loaders, so `report().publish(registry)` lands streaming ingest in the
// same `ingest_*` counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "io/load_report.h"
#include "measure/rtt_matrix.h"
#include "topo/topology.h"

namespace hoiho::io {

// One self-contained unit of streamed work: whole suffix groups plus the
// topology and measurements scoped to their routers (RouterIds are local to
// `topology`; `pings` has one row per local router, all sharing the
// campaign-wide VP set). `groups` hold pointers into `topology`, which stay
// valid when the batch is moved; order follows the stream's global suffix
// order, with `first_suffix_index` giving the offset.
struct SuffixBatch {
  std::size_t first_suffix_index = 0;
  std::vector<topo::SuffixGroup> groups;
  topo::Topology topology;
  measure::Measurements pings;

  std::size_t hostname_count() const {
    std::size_t n = 0;
    for (const topo::SuffixGroup& g : groups) n += g.hostnames.size();
    return n;
  }
};

// Pull iterator over suffix batches. Implementations decide batch sizing
// (typically a hostname budget: accumulate whole suffixes until the budget
// is met, at least one suffix per batch).
class SuffixStream {
 public:
  virtual ~SuffixStream();

  // The next batch, or nullopt at end of stream. Batches arrive in global
  // suffix order; each suffix appears in exactly one batch.
  virtual std::optional<SuffixBatch> next_batch() = 0;

  // Cumulative ingest accounting across every batch emitted so far:
  // `records` counts accepted hostnames, `lines` rendered candidates, and
  // skips are categorized like the file loaders'. publish() it into a
  // registry for the unified `ingest_*` counters.
  virtual const LoadReport& report() const = 0;

  // An identity a source may report for its stream (default 0). The
  // learner reads none: its result store keys every reuse by suffix
  // content (io/checkpoint.h). Kept because stream implementations outside
  // src/ (the perfbench replay stream) override it.
  virtual std::uint64_t signature() const { return 0; }
};

}  // namespace hoiho::io
