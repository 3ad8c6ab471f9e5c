#include "obs/trace.h"

#include <chrono>

namespace hoiho::obs {

namespace {

thread_local std::uint32_t t_span_depth = 0;

}  // namespace

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(now_ns()) {
  ring_.reserve(capacity_);
}

void Tracer::record(SpanRecord rec) {
  const std::scoped_lock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
    return;
  }
  wrapped_ = true;
  ring_[head_] = std::move(rec);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::scoped_lock lock(mu_);
  if (!wrapped_) return ring_;
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % capacity_]);
  return out;
}

std::uint64_t Tracer::dropped() const {
  const std::scoped_lock lock(mu_);
  return dropped_;
}

Span::Span(Tracer* tracer, std::string_view name, std::string_view detail, Counter us_sink)
    : tracer_(tracer), us_sink_(us_sink) {
  if (tracer_ == nullptr && !us_sink_) return;
  t0_ns_ = Tracer::now_ns();
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.detail = detail;
  rec_.thread = thread_ordinal();
  rec_.depth = t_span_depth++;
  rec_.start_ns = t0_ns_ - tracer_->epoch_ns();
}

void Span::finish() {
  if (tracer_ == nullptr && !us_sink_) return;
  const std::uint64_t dur_ns = Tracer::now_ns() - t0_ns_;
  us_sink_.add((dur_ns + 500) / 1000);
  us_sink_ = {};
  if (tracer_ == nullptr) return;
  rec_.dur_ns = dur_ns;
  --t_span_depth;
  Tracer* t = tracer_;
  tracer_ = nullptr;
  t->record(std::move(rec_));
}

}  // namespace hoiho::obs
