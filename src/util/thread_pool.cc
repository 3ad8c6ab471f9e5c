#include "util/thread_pool.h"

#include <utility>

namespace hoiho::util {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// --- WorkerPool --------------------------------------------------------------

WorkerPool::WorkerPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  heartbeats_ = std::vector<Heartbeat>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this, i] { worker(i); });
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  // jthread destructors join; a worker exits only once the queue is empty.
}

void WorkerPool::seed(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    const std::lock_guard lock(mu_);
    in_flight_ += tasks.size();
    for (Task& task : tasks) queue_.push_back(std::move(task));
  }
  cv_work_.notify_all();
}

void WorkerPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

bool WorkerPool::wait_idle_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  return cv_idle_.wait_for(lock, timeout, [this] { return in_flight_ == 0; });
}

// The scanner reads busy_since first, then task_seq: if the worker
// finishes and starts a new task in between, the worst case is one stall
// attributed to the newer seq — an off-by-one in attribution, never a
// double count.
std::size_t WorkerPool::scan_stalled(std::uint64_t threshold_ms) {
  if (stall_reported_.size() != heartbeats_.size()) stall_reported_.assign(heartbeats_.size(), 0);
  const std::uint64_t now = steady_now_ns();
  const std::uint64_t threshold_ns = threshold_ms * 1'000'000ULL;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < heartbeats_.size(); ++i) {
    const std::uint64_t busy = heartbeats_[i].busy_since_ns.load(std::memory_order_acquire);
    if (busy == 0 || now - busy < threshold_ns) continue;
    const std::uint64_t seq = heartbeats_[i].task_seq.load(std::memory_order_acquire);
    if (seq == stall_reported_[i]) continue;  // this episode already counted
    stall_reported_[i] = seq;
    ++fresh;
  }
  return fresh;
}

std::uint64_t WorkerPool::executed() const {
  const std::lock_guard lock(mu_);
  return executed_;
}

void WorkerPool::worker(std::size_t index) {
  Heartbeat& hb = heartbeats_[index];
  std::unique_lock lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and no seeded task is left to start
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    hb.task_seq.fetch_add(1, std::memory_order_relaxed);
    hb.busy_since_ns.store(steady_now_ns(), std::memory_order_release);
    task();
    task = nullptr;  // the task's captures die here, not under the lock
    hb.busy_since_ns.store(0, std::memory_order_release);
    lock.lock();
    ++executed_;
    if (--in_flight_ == 0) cv_idle_.notify_all();
  }
}

}  // namespace hoiho::util
