// Unit tests for util/thread_pool.h.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace hoiho::util {
namespace {

TEST(ResolveThreads, MapsZeroToHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(WorkerPool, SeedRunsEveryTask) {
  std::atomic<int> count{0};
  WorkerPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 1000; ++i)
    tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.seed(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed(), 1000u);
}

TEST(WorkerPool, ReusableAcrossBatches) {
  std::atomic<int> count{0};
  WorkerPool pool(2);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 50; ++i)
      tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.seed(std::move(tasks));
    pool.wait_idle();
    EXPECT_EQ(count.load(), 50 * (batch + 1));
  }
}

TEST(WorkerPool, IdleWorkerTakesTheLargestLeft) {
  // The caller seeds largest-first, so tasks 1..40 stand for ever smaller
  // suffixes behind a head (task 0) that pins one of the two workers until
  // all of them have run. The free worker must take them in seed order —
  // always the largest left — not in an order set by where each was queued.
  WorkerPool pool(2);
  std::mutex mu;
  std::vector<int> started;
  std::atomic<bool> tail_done{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    while (!tail_done.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  for (int i = 1; i <= 40; ++i)
    tasks.push_back([&, i] {
      const std::lock_guard lock(mu);
      started.push_back(i);
      if (started.size() == 40) tail_done.store(true, std::memory_order_release);
    });
  pool.seed(std::move(tasks));
  pool.wait_idle();
  std::vector<int> expected(40);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(started, expected);
  EXPECT_EQ(pool.executed(), 41u);
}

TEST(WorkerPool, DestructorDrainsSeededTasks) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; ++i)
      tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.seed(std::move(tasks));
    // No wait_idle(): destruction must still run everything queued.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  WorkerPool pool(2);
  pool.wait_idle();
  pool.seed({});  // empty seed is a no-op
  pool.wait_idle();
  SUCCEED();
}

TEST(WorkerPool, ScanStalledPairsWithWaitIdleFor) {
  WorkerPool pool(2);
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
