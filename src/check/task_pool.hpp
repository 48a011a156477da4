/// \file task_pool.hpp
/// \brief Shared FIFO task pool for the checker layer.
///
/// One pool serves every parallel path of the checker layer: the manager's
/// concurrent engines and the random-stimuli worker pool. The pool holds one
/// queue; tasks start in submission order, on a spawned worker or on a
/// thread waiting for its group — so a pool of N slots (the waiting thread
/// plus `slots - 1` spawned workers) yields exactly N-way parallelism with
/// N-1 threads. A group holds about one task per slot (one per engine, one
/// per stimuli worker), so work stealing would have nothing to balance.
///
/// Contracts the checker layer relies on:
///  - Isolation: a thread waiting in TaskGroup::wait() helps only with its
///    own group's tasks, so one job's manager thread never runs another
///    job's engine (whose deadline it does not share) on a shared pool.
///  - Exception containment: the first exception a task throws is captured
///    and rethrown from TaskGroup::wait() on the submitting thread; later
///    exceptions of the same group are counted, not rethrown. The first
///    exception poisons the group: its unstarted tasks are skipped. A task
///    exception never unwinds a pool thread.
///  - Stopping is the tasks' business: running tasks poll their own stop
///    tokens (the DD engines through their package's stop predicate inside
///    multiply/add, ZX in its set-up and simplifier loop, the dense baseline
///    once per unitary column).
#pragma once

#include "support/mutex.hpp"

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace veriqc::check {

class TaskPool;

/// A batch of related tasks submitted to a TaskPool. One owning thread
/// submits the tasks, then blocks in wait(), which lends it to the pool
/// until every task of the group has either run or been skipped.
class TaskGroup {
public:
  explicit TaskGroup(TaskPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Destruction skips unstarted tasks and waits for running ones (without
  /// rethrowing), so a group can never outlive the state its tasks capture
  /// by reference.
  ~TaskGroup();

  /// Queue one task.
  void submit(std::function<void()> fn);

  /// Run tasks on the calling thread until the group is drained, then
  /// rethrow the first captured task exception, if any.
  void wait();

  /// Tasks that were skipped (the group was poisoned by a task exception
  /// before they started). Meaningful after wait().
  [[nodiscard]] std::size_t skippedTasks() const noexcept;

  /// Task exceptions beyond the first: they lose the wait() rethrow race and
  /// would otherwise vanish without a trace. Callers surface this count into
  /// the run report (`task_pool/suppressed_exceptions`). Meaningful after
  /// wait().
  [[nodiscard]] std::size_t suppressedExceptions() const noexcept;

private:
  friend class TaskPool;

  TaskPool& pool_;
  mutable support::Mutex mutex_;
  support::CondVar done_;
  /// Submitted but not yet finished/skipped.
  std::size_t pending_ VERIQC_GUARDED_BY(mutex_) = 0;
  std::size_t skipped_ VERIQC_GUARDED_BY(mutex_) = 0;
  std::size_t suppressedExceptions_ VERIQC_GUARDED_BY(mutex_) = 0;
  /// Set by the first task exception and by the destructor.
  bool cancelled_ VERIQC_GUARDED_BY(mutex_) = false;
  std::exception_ptr firstError_ VERIQC_GUARDED_BY(mutex_);
};

/// The FIFO pool. Deliberately scoped, not a process singleton: every
/// parallel section constructs a pool sized to its configured parallelism
/// and tears it down when done, which keeps thread ownership as explicit as
/// package ownership.
class TaskPool {
public:
  /// \param slots total execution slots, including the calling thread;
  ///        clamped to at least 1. `slots == 1` spawns no threads at all:
  ///        every task runs inline in wait(), in submission order.
  explicit TaskPool(std::size_t slots);
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;
  ~TaskPool();

  [[nodiscard]] std::size_t slotCount() const noexcept {
    return workers_.size() + 1;
  }

  /// Execution slots for a configured thread-count knob: 0 means hardware
  /// concurrency, anything else is taken literally (>= 1).
  [[nodiscard]] static std::size_t resolveSlots(std::size_t configured);

private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group = nullptr;
    std::function<void()> fn;
  };

  void enqueue(Task task);
  /// Move the oldest queued task (of `only`'s group, when set) into `out`.
  /// Returns false when no queued task is eligible.
  bool tryTake(Task& out, const TaskGroup* only) VERIQC_REQUIRES(mutex_);
  static void runTask(Task& task);
  void workerLoop();
  /// Run `group`'s queued tasks on the calling thread until it has no
  /// pending tasks.
  void helpUntilDone(TaskGroup& group);

  support::Mutex mutex_;
  support::CondVar work_;
  std::deque<Task> tasks_ VERIQC_GUARDED_BY(mutex_);
  bool shutdown_ VERIQC_GUARDED_BY(mutex_) = false;
  // Sized in the constructor and only joined in the destructor.
  std::vector<std::thread> workers_;
};

} // namespace veriqc::check
