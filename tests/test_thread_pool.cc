// Unit tests for util/thread_pool.h.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/thread_pool.h"

namespace hoiho::util {
namespace {

TEST(ResolveThreads, MapsZeroToHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(WorkStealingPool, SeedRunsEveryTask) {
  std::atomic<int> count{0};
  WorkStealingPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 1000; ++i)
    tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.seed(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  const WorkStealingPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 1000u);
  EXPECT_EQ(stats.executed, 1000u);
  ASSERT_EQ(stats.workers.size(), 4u);
  std::uint64_t sum = 0;
  for (const WorkerStats& w : stats.workers) sum += w.executed;
  EXPECT_EQ(sum, 1000u);
}

TEST(WorkStealingPool, ReusableAcrossBatches) {
  std::atomic<int> count{0};
  WorkStealingPool pool(2);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 50; ++i)
      tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.seed(std::move(tasks));
    pool.wait_idle();
    EXPECT_EQ(count.load(), 50 * (batch + 1));
  }
}

TEST(WorkStealingPool, StealsUnderSkew) {
  // One worker's deque gets a giant task followed by many small ones (the
  // Zipf head); the other workers must steal the small tasks rather than
  // idle. Task 0 lands on worker 0 (seed() is round-robin), and with 2
  // workers every even-indexed task starts on worker 0's deque.
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  std::atomic<bool> gate{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    // Worker 0 is pinned here until the other worker has finished
    // everything else — which it can only do by stealing worker 0's share.
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    count.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 1; i < 41; ++i)
    tasks.push_back([&] {
      if (count.fetch_add(1, std::memory_order_relaxed) + 1 == 40)
        gate.store(true, std::memory_order_release);
    });
  pool.seed(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(count.load(), 41);
  const WorkStealingPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.executed, 41u);
  // ~20 of worker 0's tasks were queued behind the pinned task; the other
  // worker must have taken at least some of them.
  EXPECT_GT(stats.tasks_stolen, 0u);
}

TEST(WorkStealingPool, DestructorDrainsSeededTasks) {
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(2);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; ++i)
      tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.seed(std::move(tasks));
    // No wait_idle(): destruction must still run everything queued.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealingPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  WorkStealingPool pool(2);
  pool.wait_idle();
  pool.seed({});  // empty seed is a no-op
  pool.wait_idle();
  SUCCEED();
}

TEST(WorkStealingPool, TracksMaxQueueDepth) {
  WorkStealingPool pool(2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i)
    tasks.push_back([] { std::this_thread::sleep_for(std::chrono::microseconds(10)); });
  pool.seed(std::move(tasks));
  pool.wait_idle();
  // 100 tasks round-robined over 2 deques: each deque held up to 50 at once.
  EXPECT_GE(pool.stats().max_queue_depth, 25u);
  EXPECT_LE(pool.stats().max_queue_depth, 50u);
}

TEST(WorkStealingPool, ScanStalledPairsWithWaitIdleFor) {
  WorkStealingPool pool(2);
  std::atomic<bool> release{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  pool.seed(std::move(tasks));
  // The stuck task keeps the pool from going idle...
  EXPECT_FALSE(pool.wait_idle_for(std::chrono::milliseconds(30)));
  // ...and the scanner attributes the stall to exactly one worker, once.
  std::size_t stalled = 0;
  for (int i = 0; i < 400 && stalled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stalled = pool.scan_stalled(10);
  }
  EXPECT_EQ(stalled, 1u);
  EXPECT_EQ(pool.scan_stalled(10), 0u);
  release.store(true);
  EXPECT_TRUE(pool.wait_idle_for(std::chrono::seconds(10)));
  EXPECT_EQ(pool.scan_stalled(10), 0u);
}

}  // namespace
}  // namespace hoiho::util
