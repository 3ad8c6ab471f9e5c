// The learner's worker pool, plus the pieces the serving loops share with it.
//
//   * WorkStealingPool — per-worker deques with steal-from-back semantics,
//     built for the learner's suffix fan-out where task sizes are heavily
//     skewed (Zipf suffix sizes: one giant consumer ISP next to thousands of
//     small operators). The caller seeds a whole batch at once, cost-ordered
//     largest-first; seeding round-robins tasks across the deques under one
//     lock acquisition per worker, so there is no shared-queue convoy.
//     Workers pop their own deque from the front (big tasks start first) and
//     steal from the back of a victim's deque when empty (stolen tasks are
//     the smallest remaining, minimizing contention on the victim's lock).
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
#include <memory>
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

// Per-worker accounting of a WorkStealingPool.
struct WorkerStats {
  std::uint64_t executed = 0;        // tasks this worker finished
  std::uint64_t stolen = 0;          // tasks it took from another worker's deque
  std::uint64_t steal_failures = 0;  // full victim scans that found nothing
  std::size_t max_queue_depth = 0;   // high-water mark of its own deque
};

// Maps a thread-count knob to a count: 0 means "use the hardware"
// (hardware_concurrency, at least 1), anything else passes through.
std::size_t resolve_threads(std::size_t requested);

// Suffix-sharding pool: per-worker deques, batch seeding, work stealing.
//
// Usage is batch-oriented: seed() a whole task list (the caller orders it
// largest-cost-first), wait_idle(), optionally seed() the next batch. Task
// i of a seed call lands on worker i % thread_count() — deterministic
// placement, so a cost-descending order gives every worker one of the k
// largest tasks.
class WorkStealingPool {
 public:
  explicit WorkStealingPool(std::size_t threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  // Distributes `tasks` round-robin across the worker deques (task i to
  // worker i % N, preserving order within each deque) and wakes the
  // workers. One lock acquisition per worker, not per task.
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

  std::size_t thread_count() const { return workers_.size(); }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t tasks_stolen = 0;      // sum of workers[].stolen
    std::uint64_t steal_failures = 0;    // sum of workers[].steal_failures
    std::size_t max_queue_depth = 0;     // max over workers[].max_queue_depth
    std::vector<WorkerStats> workers;
  };
  Stats stats() const;

 private:
  using Task = std::function<void()>;

  // One deque + its lock, cache-line separated so a worker popping its own
  // deque never false-shares with a neighbour being stolen from.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::deque<Task> deque;
    WorkerStats stats;
  };

  void worker(std::stop_token stop, std::size_t index);
  bool try_pop_own(std::size_t index, Task& out);
  bool try_steal(std::size_t thief, Task& out);
  void run_task(std::size_t index, Task& task);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Heartbeat> heartbeats_;          // one per worker, fixed size
  std::vector<std::uint64_t> stall_reported_;  // scanner-owned (see scan_stalled)

  std::mutex idle_mu_;
  std::condition_variable cv_work_;  // new tasks seeded, or stop requested
  std::condition_variable cv_idle_;  // in-flight reached zero
  std::atomic<std::size_t> in_flight_{0};  // queued + executing (wait_idle)
  std::atomic<std::size_t> queued_{0};     // queued only (worker sleep/steal gate)
  std::atomic<std::uint64_t> submitted_{0};
  bool stopping_ = false;  // guarded by idle_mu_
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

}  // namespace hoiho::util
