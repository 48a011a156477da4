/// \file manager.hpp
/// \brief The combined equivalence-checking flow of the case study.
///
/// Mirrors the configuration evaluated in the paper (Sec. 6.1): the DD
/// alternating checker runs in parallel with a sequence of random-stimuli
/// simulation runs; if the simulations prove non-equivalence the alternating
/// check is terminated early. The ZX engine can be enabled as a further
/// concurrent engine or invoked standalone via zxCheck().
#pragma once

#include "check/dd_checkers.hpp"
#include "check/result.hpp"
#include "check/zx_checker.hpp"
#include "ir/circuit.hpp"
#include "obs/phase_timer.hpp"

#include <atomic>
#include <vector>

namespace veriqc::check {

class TaskPool;

class EquivalenceCheckingManager {
public:
  EquivalenceCheckingManager(QuantumCircuit c1, QuantumCircuit c2,
                             Configuration config = {});

  /// Run the configured engines and return the combined verdict.
  [[nodiscard]] Result run();

  /// Run parallel engine rounds on an external task pool instead of a
  /// private per-round one. The pool must outlive run(); several managers
  /// may share one pool (veriqcd runs every job's rounds on the daemon
  /// pool), since TaskGroups are isolated and waiting threads help with
  /// whatever task is available. Pass nullptr to restore the private pool.
  void useTaskPool(TaskPool* pool) noexcept { externalPool_ = pool; }

  /// Cooperatively cancel an in-flight run() from another thread: every
  /// engine's next stop-token poll observes the request and winds down with
  /// verdict Cancelled (not Timeout — the request precedes the deadline).
  /// Sticky: a run() started after the request stops at its first poll.
  void requestCancel() noexcept {
    externalCancel_.store(true, std::memory_order_release);
  }

  /// Per-engine results of the last run (in engine launch order).
  [[nodiscard]] const std::vector<Result>& engineResults() const noexcept {
    return engineResults_;
  }

  /// Record run phases (prepare, per-engine, combine) into an external
  /// timer instead of the internal one — lets a frontend that also times
  /// its own phases (e.g. check_qasm's parse) collect every span in one
  /// place. The timer must outlive run(); it is never restarted here.
  void usePhaseTimer(obs::PhaseTimer* timer) noexcept {
    externalPhases_ = timer;
  }

  /// Phase spans of the last run (the external timer's view when one was
  /// injected via usePhaseTimer).
  [[nodiscard]] const obs::PhaseTimer& phases() const noexcept {
    return externalPhases_ != nullptr ? *externalPhases_ : phases_;
  }

private:
  [[nodiscard]] obs::PhaseTimer& activePhases() noexcept {
    return externalPhases_ != nullptr ? *externalPhases_ : phases_;
  }

  QuantumCircuit c1_;
  QuantumCircuit c2_;
  Configuration config_;
  std::vector<Result> engineResults_;
  obs::PhaseTimer phases_;
  obs::PhaseTimer* externalPhases_ = nullptr;
  TaskPool* externalPool_ = nullptr;
  std::atomic<bool> externalCancel_{false};
};

/// Convenience wrapper: construct a manager and run it.
[[nodiscard]] Result checkEquivalence(const QuantumCircuit& c1,
                                      const QuantumCircuit& c2,
                                      const Configuration& config = {});

} // namespace veriqc::check
