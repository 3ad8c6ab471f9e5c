// The learner's worker pool, plus the pieces the serving loops share with it.
//
//   * WorkerPool — one mutex-guarded FIFO that every idle worker pops from
//     the front, built for the learner's suffix fan-out where task sizes are
//     heavily skewed (Zipf suffix sizes: one giant consumer ISP next to
//     thousands of small operators). The caller seeds a whole batch at once,
//     cost-ordered largest-first, so whichever worker frees up first takes
//     the largest task left: longest-first list scheduling. Tasks take tens
//     of µs to hundreds of ms, so the one lock sees a few acquisitions per
//     millisecond (DESIGN.md §12).
//   * Heartbeat — the watchdog stamp a pool worker (or a serve::Server event
//     loop) sets per task, so another thread can spot one stuck past a limit.
//   * resolve_threads — the shared meaning of a "0 = one per core" knob.
//
// The pool imposes no execution order on results: pipeline callers write
// into index-addressed slots, so threads=1 and threads=N produce
// byte-identical output regardless of which worker ran what.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hoiho::util {

// Watchdog heartbeat, one per worker. The worker bumps task_seq and stamps
// busy_since_ns when it starts a task and zeroes busy_since_ns when the task
// finishes; a scanner reads them to count workers stuck on one task past a
// threshold — one episode per task, so a slow task is reported once, not
// once per scan.
struct Heartbeat {
  std::atomic<std::uint64_t> busy_since_ns{0};  // 0 = idle
  std::atomic<std::uint64_t> task_seq{0};
};

// Maps a thread-count knob to a count: 0 means "use the hardware"
// (hardware_concurrency, at least 1), anything else passes through.
std::size_t resolve_threads(std::size_t requested);

// Batch-oriented pool: seed() a whole task list (the caller orders it
// largest-cost-first), wait_idle(), optionally seed() the next batch. Tasks
// start in seed order; each runs, and is destroyed, outside the pool's lock.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);
  // Runs every seeded task, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Appends `tasks`, in order, to the queue and wakes the workers.
  void seed(std::vector<std::function<void()>> tasks);

  // Blocks until every seeded task has finished executing.
  void wait_idle();

  // wait_idle() with a timeout: true if the pool went idle, false if the
  // wait timed out (callers typically scan_stalled() and wait again).
  bool wait_idle_for(std::chrono::milliseconds timeout);

  // Counts workers that have been busy on one task for longer than
  // `threshold_ms`, each stall episode reported once (keyed by the worker's
  // task_seq). Call from a single scanner thread; the per-worker
  // last-reported bookkeeping is not synchronized.
  std::size_t scan_stalled(std::uint64_t threshold_ms);

  // Tasks finished since construction.
  std::uint64_t executed() const;

 private:
  using Task = std::function<void()>;

  void worker(std::size_t index);

  std::vector<Heartbeat> heartbeats_;          // one per worker, fixed size
  std::vector<std::uint64_t> stall_reported_;  // scanner-owned (see scan_stalled)

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // tasks seeded, or stopping
  std::condition_variable cv_idle_;  // in_flight_ reached zero
  std::deque<Task> queue_;           // guarded by mu_
  std::size_t in_flight_ = 0;        // queued + running, guarded by mu_
  std::uint64_t executed_ = 0;       // guarded by mu_
  bool stopping_ = false;            // guarded by mu_
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

}  // namespace hoiho::util
