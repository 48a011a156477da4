#include "check/task_pool.hpp"

#include "fault/fault.hpp"

#include <algorithm>
#include <utility>

namespace veriqc::check {

// --- TaskGroup ---------------------------------------------------------------

TaskGroup::~TaskGroup() {
  // A group must never outlive its tasks: drain without rethrowing (wait()
  // is the reporting path; the destructor only guarantees quiescence).
  {
    const support::LockGuard lock(mutex_);
    cancelled_ = true;
  }
  pool_.helpUntilDone(*this);
}

void TaskGroup::submit(std::function<void()> fn) {
  {
    const support::LockGuard lock(mutex_);
    ++pending_;
  }
  try {
    pool_.enqueue({this, std::move(fn)});
  } catch (...) {
    // Roll the count back, or wait()/~TaskGroup would block forever on a
    // task that never reached the queue.
    const support::LockGuard lock(mutex_);
    if (--pending_ == 0) {
      done_.notify_all();
    }
    throw;
  }
}

void TaskGroup::wait() {
  pool_.helpUntilDone(*this);
  const support::LockGuard lock(mutex_);
  if (firstError_) {
    auto error = std::exchange(firstError_, nullptr);
    std::rethrow_exception(error);
  }
}

std::size_t TaskGroup::skippedTasks() const noexcept {
  const support::LockGuard lock(mutex_);
  return skipped_;
}

std::size_t TaskGroup::suppressedExceptions() const noexcept {
  const support::LockGuard lock(mutex_);
  return suppressedExceptions_;
}

// --- TaskPool ----------------------------------------------------------------

TaskPool::TaskPool(const std::size_t slots) {
  // One slot belongs to the waiting thread (it participates via wait()).
  const std::size_t spawned = slots == 0 ? 0 : slots - 1;
  workers_.reserve(spawned);
  for (std::size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    const support::LockGuard lock(mutex_);
    shutdown_ = true;
  }
  work_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::size_t TaskPool::resolveSlots(const std::size_t configured) {
  if (configured != 0) {
    return configured;
  }
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return hw == 0 ? 1 : hw;
}

void TaskPool::enqueue(Task task) {
  // The push below can fail to allocate; TaskGroup::submit rolls back.
  VERIQC_FAULT_POINT(fault::points::kPoolEnqueue, fault::FaultKind::BadAlloc);
  {
    const support::LockGuard lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  // A worker checks the queue and starts waiting under mutex_, so this push
  // is either seen by its check or lands after it waits: no wakeup is lost.
  work_.notify_one();
}

bool TaskPool::tryTake(Task& out, const TaskGroup* only) {
  const auto it =
      std::find_if(tasks_.begin(), tasks_.end(), [only](const Task& task) {
        return only == nullptr || task.group == only;
      });
  if (it == tasks_.end()) {
    return false;
  }
  out = std::move(*it);
  tasks_.erase(it);
  return true;
}

void TaskPool::runTask(Task& task) {
  TaskGroup& group = *task.group;
  bool skip = false;
  {
    const support::LockGuard lock(group.mutex_);
    skip = group.cancelled_;
  }
  if (!skip) {
    try {
      VERIQC_FAULT_POINT(fault::points::kPoolTaskStart,
                         fault::FaultKind::Runtime);
      task.fn();
    } catch (...) {
      const support::LockGuard lock(group.mutex_);
      if (!group.firstError_) {
        group.firstError_ = std::current_exception();
      } else {
        // Later exceptions lose the rethrow race; count them so callers can
        // surface the loss instead of silently dropping it.
        ++group.suppressedExceptions_;
      }
      // A failed task poisons the whole group: there is no point running
      // its siblings against state the exception may have abandoned.
      group.cancelled_ = true;
    }
  }
  const support::LockGuard lock(group.mutex_);
  if (skip) {
    ++group.skipped_;
  }
  if (--group.pending_ == 0) {
    // Notify while still holding the mutex: the waiter is free to destroy
    // the group the moment it observes pending_ == 0 (wait()/~TaskGroup
    // return paths), so the condition variable must not be touched after
    // this lock is released.
    group.done_.notify_all();
  }
}

void TaskPool::workerLoop() {
  while (true) {
    Task task;
    {
      support::LockGuard lock(mutex_);
      while (!tryTake(task, nullptr)) {
        if (shutdown_) {
          return;
        }
        work_.wait(lock);
      }
    }
    runTask(task);
  }
}

void TaskPool::helpUntilDone(TaskGroup& group) {
  // Only this group's tasks: on a shared pool another group's task (another
  // job's engine) could run far past this group's deadline.
  while (true) {
    Task task;
    {
      const support::LockGuard lock(mutex_);
      if (!tryTake(task, &group)) {
        break;
      }
    }
    runTask(task);
  }
  // None of the group's tasks is queued any more, and only its owner (this
  // thread) submits: the rest are running on workers.
  support::LockGuard lock(group.mutex_);
  while (group.pending_ != 0) {
    group.done_.wait(lock);
  }
}

} // namespace veriqc::check
