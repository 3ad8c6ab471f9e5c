// Process-wide metrics registry: the one instrumentation substrate shared
// by the learner pipeline, the hoihod serving daemon, the lenient loaders,
// and the bench harnesses (DESIGN.md §11).
//
// Three metric kinds:
//   * Counter   — monotone u64, sharded across cache-line-padded slots so
//                 concurrent writers never contend on one line; inc() is a
//                 single relaxed fetch_add.
//   * Gauge     — one i64 cell, set/add semantics (queue depths, sizes).
//   * Histogram — fixed bucket bounds, per-shard bucket counts + sum;
//                 snapshot aggregates and interpolates percentiles.
//
// Handles (Counter/Gauge/Histogram) are trivially copyable pointers into
// registry-owned stable storage; a default-constructed handle is a no-op,
// so instrumentation can be threaded through code paths that sometimes run
// without a registry at zero cost beyond a null check. Registering the same
// name twice returns the same metric (idempotent), which is what lets many
// subsystems share one registry without coordination.
//
// snapshot() is the only read path. It materializes every metric in
// registration order behind an acquire fence; registering an "effect"
// counter before its "cause" (e.g. serve hits/misses before requests) makes
// the snapshot respect the cause>=effect invariant on TSO hardware, because
// the effect is read first — see serve/metrics.h for the worked example.
//
// Naming: Prometheus-style, lower_snake base name plus optional {k="v"}
// labels, e.g. `ingest_skipped{category="bad_fields"}`. The full string is
// the identity; label sets are not parsed or merged.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hoiho::obs {

// Small fixed shard count: enough to spread a handful of hot writer threads,
// cheap enough that every counter can afford the padding.
inline constexpr std::size_t kShards = 8;

// Stable per-thread shard assignment (round-robin at first use). Also used
// by the tracer as a compact thread ordinal for span records.
std::uint32_t thread_ordinal();
inline std::size_t shard_index() { return thread_ordinal() % kShards; }

namespace detail {

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

struct CounterCells {
  PaddedU64 shards[kShards];
};

struct GaugeCell {
  std::atomic<std::int64_t> v{0};
};

struct HistogramCells {
  std::vector<double> bounds;  // ascending upper bounds; +inf bucket implied
  // Per shard: bounds.size()+1 bucket counts, then the running sum (as
  // atomic<double> via CAS add).
  struct Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  Shard shards[kShards];
};

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (cells_ != nullptr)
      cells_->shards[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void add(std::uint64_t n) const { inc(n); }
  std::uint64_t load() const;  // sum over shards (acquire)
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCells* c) : cells_(c) {}
  detail::CounterCells* cells_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const {
    if (cell_ != nullptr) cell_->v.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) const {
    if (cell_ != nullptr) cell_->v.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t load() const {
    return cell_ == nullptr ? 0 : cell_->v.load(std::memory_order_acquire);
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* c) : cell_(c) {}
  detail::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCells* c) : cells_(c) {}
  detail::HistogramCells* cells_ = nullptr;
};

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
std::string_view to_string(Kind k);

// Aggregated histogram state in a snapshot.
struct HistogramData {
  std::vector<double> bounds;          // upper bounds; final +inf bucket implied
  std::vector<std::uint64_t> buckets;  // bounds.size()+1 counts
  std::uint64_t count = 0;
  double sum = 0.0;

  // Percentile estimate by linear interpolation inside the containing
  // bucket; values in the overflow bucket clamp to the last bound.
  double percentile(double p) const;
};

// One consistent materialization of a registry. Entries appear in
// registration order; `value`/`find` look metrics up by full name.
struct Snapshot {
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t value = 0;  // counter
    std::int64_t gauge = 0;   // gauge
    HistogramData hist;       // histogram
  };
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const;
  std::uint64_t value(std::string_view name) const;  // 0 if absent
  bool has(std::string_view name) const { return find(name) != nullptr; }

  // {"counters": {...}, "gauges": {...}, "histograms": {...}} — the shared
  // export format (the bench JSON records, the obs tests).
  std::string to_json(std::string_view indent = "") const;

  // Prometheus text exposition (the hoihod METRICS verb / --metrics-port).
  std::string to_prometheus() const;
};

// Default latency bucket bounds: 1us .. 10s in decades, in nanoseconds.
std::span<const double> default_latency_bounds_ns();

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registration is idempotent by full name: a second call with the same
  // name returns a handle to the same metric (the kind must match; a
  // mismatched kind returns a null handle rather than corrupting storage).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::span<const double> bounds = {});

  // Reads every metric, in registration order, behind an acquire fence.
  Snapshot snapshot() const;

  std::size_t size() const;

  // The process-wide default registry, for callers with no better scope.
  // Library code (Hoiho, Server) takes an explicit registry instead.
  static Registry& process();

 private:
  struct MetricInfo {
    std::string name;
    Kind kind;
    detail::CounterCells* counter = nullptr;
    detail::GaugeCell* gauge = nullptr;
    detail::HistogramCells* histogram = nullptr;
  };

  MetricInfo* find_locked(std::string_view name);

  mutable std::mutex mu_;
  // Deques: stable addresses so handles survive later registrations.
  std::deque<detail::CounterCells> counters_;
  std::deque<detail::GaugeCell> gauges_;
  std::deque<detail::HistogramCells> histograms_;
  std::vector<MetricInfo> metrics_;  // registration order
};

}  // namespace hoiho::obs
