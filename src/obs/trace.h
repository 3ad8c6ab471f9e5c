// Lightweight stage-span tracing for the learning pipeline.
//
// A Span is an RAII stopwatch: construct it when a pipeline stage begins,
// let it destruct when the stage ends, and one SpanRecord (name, detail,
// start, duration, work count, thread ordinal, nesting depth) lands in the
// owning Tracer's ring buffer. The tracer is bounded — when the ring is
// full, the oldest record is overwritten and `dropped()` counts the loss —
// so tracing a million-suffix run costs fixed memory.
//
// Spans are cheap but not free (two steady_clock reads plus one mutex'd
// ring push on completion), so they wrap *stages* — tag / regex-gen / eval
// / learn, a few per suffix — never per-hostname work. A span may also feed
// a Counter with its duration in µs, so a stage is timed once whether or not
// a tracer is attached. A null tracer and a null counter make Span a no-op,
// which is how uninstrumented runs pay nothing.
//
// Nesting depth is tracked per thread: a span opened while another span on
// the same thread is live records depth parent+1. Records are pushed on
// completion, so a parent appears after its children; order by start_ns to
// reconstruct the tree.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace hoiho::obs {

struct SpanRecord {
  std::string name;    // stage name, e.g. "tag", "eval"
  std::string detail;  // instance, e.g. the suffix
  std::uint64_t start_ns = 0;  // relative to the tracer's epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t work = 0;  // caller-defined unit count (hostnames, candidates)
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  // Monotonic nanoseconds since an arbitrary process epoch.
  static std::uint64_t now_ns();

  void record(SpanRecord rec);

  // Completed spans, oldest first. Copies under the lock; call off the hot
  // path (end of run, export time).
  std::vector<SpanRecord> spans() const;

  std::uint64_t dropped() const;
  std::uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position once the ring has wrapped
  bool wrapped_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t epoch_ns_;
};

class Span {
 public:
  // A null tracer records nothing; `us_sink`, if set, receives the span's
  // duration in µs (rounded) either way. Both null: no clock reads.
  Span(Tracer* tracer, std::string_view name, std::string_view detail = {},
       Counter us_sink = {});
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_work(std::uint64_t w) { rec_.work = w; }
  void add_work(std::uint64_t w) { rec_.work += w; }

  // Records the span now (idempotent; the destructor calls it).
  void finish();

 private:
  Tracer* tracer_;
  Counter us_sink_;
  std::uint64_t t0_ns_ = 0;  // Tracer::now_ns() at construction
  SpanRecord rec_;
};

}  // namespace hoiho::obs
