#include "check/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace veriqc::check {
namespace {

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t slots : {1U, 2U, 4U, 8U}) {
    TaskPool pool(slots);
    EXPECT_EQ(pool.slotCount(), slots);
    std::vector<std::atomic<int>> runs(64);
    TaskGroup group(pool);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      group.submit([&runs, i] { runs[i].fetch_add(1); });
    }
    group.wait();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "slots=" << slots << " task=" << i;
    }
    EXPECT_EQ(group.skippedTasks(), 0U);
  }
}

TEST(TaskPoolTest, SingleSlotRunsInlineInSubmissionOrder) {
  TaskPool pool(1);
  std::vector<int> order;
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit([&order, i] { order.push_back(i); });
  }
  group.wait();
  ASSERT_EQ(order.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskPoolTest, FirstExceptionIsRethrownFromWait) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.submit([]() -> void {
    throw std::runtime_error("task failed");
  });
  for (int i = 0; i < 16; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // A failing task cancels its group; bystanders either ran before the
  // failure or were skipped — but none may be lost.
  EXPECT_EQ(static_cast<std::size_t>(ran.load()) + group.skippedTasks(), 16U);
}

TEST(TaskPoolTest, DestructorDrainsWithoutRethrow) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    group.submit([]() -> void {
      throw std::runtime_error("unobserved");
    });
    for (int i = 0; i < 8; ++i) {
      group.submit([&ran] { ran.fetch_add(1); });
    }
    // No wait(): the destructor must drain the group and swallow the
    // exception instead of terminating or leaving tasks referencing `ran`.
  }
  SUCCEED();
}

TEST(TaskPoolTest, GroupsOnOnePoolAreIndependent) {
  TaskPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  TaskGroup groupA(pool);
  TaskGroup groupB(pool);
  // B's first task throws and poisons B; A shares the pool and must not
  // notice.
  groupB.submit([]() -> void { throw std::runtime_error("b failed"); });
  for (int i = 0; i < 15; ++i) {
    groupA.submit([&a] { a.fetch_add(1); });
    groupB.submit([&b] { b.fetch_add(1); });
  }
  groupA.submit([&a] { a.fetch_add(1); });
  EXPECT_NO_THROW(groupA.wait());
  EXPECT_THROW(groupB.wait(), std::runtime_error);
  EXPECT_EQ(a.load(), 16);
  EXPECT_EQ(groupA.skippedTasks(), 0U);
  // B's siblings either started before the throw landed or were skipped.
  EXPECT_EQ(static_cast<std::size_t>(b.load()) + groupB.skippedTasks(), 15U);
}

TEST(TaskPoolTest, WorkerRunsTasksInSubmissionOrder) {
  // The first task holds the only worker behind a latch while 15 more are
  // queued; the submitting thread never helps, so the worker alone drains
  // the queue — and must start the tasks in the order they were submitted.
  TaskPool pool(2);
  TaskGroup group(pool);
  std::atomic<bool> started{false};
  std::atomic<bool> open{false};
  std::atomic<int> finished{0};
  std::vector<int> order; // written by the worker only
  group.submit([&] {
    started.store(true);
    while (!open.load()) {
      std::this_thread::yield();
    }
    order.push_back(0);
    finished.fetch_add(1);
  });
  while (!started.load()) {
    std::this_thread::yield(); // the worker now holds task 0
  }
  for (int i = 1; i < 16; ++i) {
    group.submit([&order, &finished, i] {
      order.push_back(i);
      finished.fetch_add(1);
    });
  }
  open.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (finished.load() < 16) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the worker stalled after " << finished.load() << " tasks";
    std::this_thread::yield();
  }
  group.wait();
  ASSERT_EQ(order.size(), 16U);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskPoolTest, WaitRunsOnlyItsOwnGroupsTasks) {
  // On a shared pool (veriqcd), a job's manager thread waiting for its own
  // engines must not pick up another job's engine: nothing bounds how long
  // that one runs. Group A parks a running task behind a latch and queues
  // two more; group B's wait() must return while the latch is still shut.
  TaskPool pool(2); // one worker thread plus the waiting thread
  std::atomic<bool> open{false};
  std::atomic<int> startedA{0};
  const auto parked = [&open, &startedA] {
    startedA.fetch_add(1);
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  TaskGroup groupA(pool);
  groupA.submit(parked);
  while (startedA.load() == 0) {
    std::this_thread::yield(); // the worker now holds a0
  }
  groupA.submit(parked);
  groupA.submit(parked);
  std::atomic<bool> ranB{false};
  TaskGroup groupB(pool);
  groupB.submit([&ranB] { ranB.store(true); });
  // A regression must fail, not hang: open the latch after 5 s regardless.
  std::atomic<bool> valveFired{false};
  std::thread valve([&open, &valveFired] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!open.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!open.exchange(true)) {
      valveFired.store(true);
    }
  });
  groupB.wait();
  const bool returnedWhileShut = !open.load();
  open.store(true);
  valve.join();
  groupA.wait();
  EXPECT_TRUE(ranB.load());
  EXPECT_TRUE(returnedWhileShut);
  EXPECT_FALSE(valveFired.load());
  EXPECT_EQ(startedA.load(), 3);
}

TEST(TaskPoolTest, ResolveSlotsMapsZeroToHardwareConcurrency) {
  EXPECT_GE(TaskPool::resolveSlots(0), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(1), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(6), 6U);
}

TEST(TaskPoolTest, EnqueueWakesASleepingWorkerWithoutHelp) {
  // Regression for a missed wakeup: an earlier pool checked its queues
  // under one mutex and slept on another, so an enqueue's notify could land
  // between a worker's empty-recheck and its wait() — the worker then slept
  // through the freshly queued task, and only a polling fallback in
  // helpUntilDone kept runs live. This test removes that safety net: the
  // submitting thread never calls wait() while a task is pending, so every
  // task must be executed by a worker that the enqueue itself woke.
  TaskPool pool(2); // exactly one worker thread to wake
  TaskGroup group(pool);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<bool> ran{false};
    group.submit([&ran] {
      ran.store(true, std::memory_order_release);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ran.load(std::memory_order_acquire)) {
      const bool timedOut = std::chrono::steady_clock::now() >= deadline;
      ASSERT_FALSE(timedOut)
          << "worker never woke for the task submitted in round " << round;
      std::this_thread::yield();
    }
  }
  group.wait();
}

TEST(TaskPoolTest, ManySmallGroupsDoNotDeadlock) {
  // Regression guard for lost-wakeup bugs: rapid-fire group churn across a
  // shared pool must always terminate.
  TaskPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.submit([&ran] { ran.fetch_add(1); });
    }
    group.wait();
    ASSERT_EQ(ran.load(), 8) << "round " << round;
  }
}

} // namespace
} // namespace veriqc::check
