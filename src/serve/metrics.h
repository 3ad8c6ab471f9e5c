// Serving counters as registry handles (DESIGN.md §11).
//
// One Metrics object lives for the lifetime of a Server. Historically this
// was a bag of raw atomics; it is now a facade over obs::Registry so the
// serving counters land in the same substrate (and the same snapshot) as
// the learner pipeline and ingest counters. Pass a shared registry to merge
// them; the default constructor owns a private one.
//
// Field names are unchanged, and obs::Counter keeps inc()/add()/load(), so
// callers read the same way they always did. The STATS v1 wire format
// (protocol.h format_stats) is byte-identical to the raw-atomics era.
//
// Snapshot consistency: snapshot() reads through obs::Registry::snapshot(),
// which materializes metrics in *registration order* behind an acquire
// fence. The constructor registers effect counters before their cause —
// hits/misses/errors before requests — so a snapshot taken mid-flight can
// no longer show hits+misses ahead of requests on TSO hardware (the old
// field-by-field relaxed loads made that skew easy to observe under load).
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace hoiho::serve {

class Metrics {
 public:
  // `registry` null means this Metrics owns a private registry; non-null
  // shares the caller's (which must outlive this object).
  explicit Metrics(obs::Registry* registry = nullptr);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // Request outcomes. NOTE: registration order in the constructor, not
  // declaration order here, is what snapshot consistency hangs on.
  obs::Counter requests;  // lookup lines received
  obs::Counter hits;      // lookups that produced a location
  obs::Counter misses;    // well-formed lookups with no answer
  obs::Counter errors;    // malformed/oversized/unservable lines
  obs::Counter admin;     // STATS / STATS2 / METRICS / RELOAD verbs

  // Model lifecycle. reload_rejected / rollbacks / worker_stalled and the
  // delta family are registry-only (STATS2 / METRICS): the STATS v1 key set
  // is frozen.
  obs::Counter reloads;
  obs::Counter reload_failures;
  obs::Counter reload_debounced;  // watch polls deferred for stability
  obs::Counter reload_rejected;   // canary gate kept the old generation
  obs::Counter rollbacks;         // ROLLBACK verbs that republished an archive
  obs::Counter worker_stalled;    // watchdog: event loop stuck on one batch
  obs::Counter delta_applies;     // model deltas published (DELTA verb / watch)
  obs::Counter delta_rejected;    // stale base / unknown suffix / torn file
  obs::Histogram delta_apply_us;  // wall time of one apply_delta publish
  obs::Gauge model_generation;    // the serving generation, updated per publish

  // GEOB batch accounting: subjects counted under requests/hits/misses as
  // usual; these add per-batch shape (avg GEOB size = subjects / batches).
  obs::Counter geob_batches;   // GEOB blocks answered
  obs::Counter geob_subjects;  // subject lines across all GEOB blocks

  // Model-format observability (DESIGN.md §15): end-to-end reload latency
  // plus per-format load accounting, so dashboards can tell a cheap mmap
  // republish from a full text parse. Registry-only (STATS2 / METRICS).
  obs::Histogram reload_us;             // serve_reload_us (publishes + rollbacks)
  obs::Counter load_bytes_mapped;       // model_load_bytes_mapped (mmap'ed model bytes)
  obs::Counter load_build_us_text;      // model_load_build_us{format="text"}
  obs::Counter load_build_us_ncb;       // model_load_build_us{format="ncb"}
  obs::Counter load_build_us_ncb_mmap;  // model_load_build_us{format="ncb_mmap"}

  // Fault tolerance (see DESIGN.md §9).
  obs::Counter deadline_expired;  // lines answered ERR,deadline
  obs::Counter shed_busy;         // lines answered ERR,busy
  obs::Counter idle_closed;       // connections reaped for idleness
  obs::Counter injected_faults;   // failpoint firings observed

  // Batching shape: avg batch size = batched_lines / batches.
  obs::Counter batches;
  obs::Counter batched_lines;

  // Connection churn.
  obs::Counter connections_opened;
  obs::Counter connections_closed;

  // Per-stage wall time, nanoseconds (read + split, answering, write).
  obs::Counter parse_ns;
  obs::Counter lookup_ns;
  obs::Counter write_ns;

  // Per-batch answering latency (first lookup to answers formatted); the
  // histogram behind the STATS2 percentiles.
  obs::Histogram batch_ns;

  // Plain-struct copy for STATS v1 formatting; field set unchanged.
  struct Snapshot {
    std::uint64_t requests = 0, hits = 0, misses = 0, errors = 0, admin = 0;
    std::uint64_t reloads = 0, reload_failures = 0, reload_debounced = 0;
    std::uint64_t deadline_expired = 0, shed_busy = 0, idle_closed = 0, injected_faults = 0;
    std::uint64_t batches = 0, batched_lines = 0;
    std::uint64_t connections_opened = 0, connections_closed = 0;
    std::uint64_t parse_ns = 0, lookup_ns = 0, write_ns = 0;

    double avg_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(batched_lines) / static_cast<double>(batches);
    }
  };

  // One consistent materialization (see header comment). Derived from
  // registry().snapshot(), never from per-field loads.
  Snapshot snapshot() const;

  // The registry behind the handles — what STATS2 / METRICS / the HTTP
  // endpoint snapshot. Holds every serve_* metric plus whatever else a
  // shared registry carries.
  obs::Registry& registry() { return *registry_; }
  const obs::Registry& registry() const { return *registry_; }

 private:
  std::unique_ptr<obs::Registry> owned_;
  obs::Registry* registry_ = nullptr;
};

}  // namespace hoiho::serve
