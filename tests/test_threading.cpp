/// Thread-stress tests for the parallel manager and the multi-threaded
/// simulation checker. These are the workload scripts/check_tsan.sh runs
/// under ThreadSanitizer: they deliberately drive every concurrency path —
/// parallel engines racing on the stop token, worker pools claiming stimuli
/// from the shared counter, cancellation mid-simulation — with enough
/// repetitions for a data race to get a chance to interleave.
#include "check/manager.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "ir/circuit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace veriqc {
namespace {

check::Configuration stressConfig() {
  check::Configuration config;
  config.parallel = true;
  config.runAlternating = true;
  config.runSimulation = true;
  config.simulationThreads = 4;
  config.simulationRuns = 12;
  return config;
}

TEST(ThreadingStressTest, ParallelManagerOnEquivalentCircuits) {
  const auto a = circuits::qft(5);
  const auto b = circuits::qft(5);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result = check::checkEquivalence(a, b, stressConfig());
    EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  }
}

TEST(ThreadingStressTest, ParallelManagerRacesToNonEquivalence) {
  // The simulation workers find the counterexample and cancel the
  // alternating engine mid-flight — the interesting cross-thread path.
  auto a = circuits::qft(5);
  auto b = circuits::qft(5);
  b.z(2);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result = check::checkEquivalence(a, b, stressConfig());
    EXPECT_EQ(result.criterion, check::EquivalenceCriterion::NotEquivalent);
  }
}

TEST(ThreadingStressTest, SimulationWorkerPoolIsDeterministic) {
  // The first counterexample index must be a function of (seed, stimuli)
  // alone: every thread count has to report the same stimulus.
  auto a = circuits::ghz(6);
  auto b = circuits::ghz(6);
  b.x(3);
  std::vector<std::int64_t> witnesses;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    check::Configuration config;
    config.runAlternating = false;
    config.runZX = false;
    config.simulationThreads = threads;
    config.simulationRuns = 16;
    const auto result = check::checkEquivalence(a, b, config);
    ASSERT_EQ(result.criterion, check::EquivalenceCriterion::NotEquivalent);
    witnesses.push_back(result.counterexampleStimulus);
  }
  for (const auto w : witnesses) {
    EXPECT_EQ(w, witnesses.front());
  }
}

TEST(ThreadingStressTest, OversubscribedWorkerPool) {
  // More workers than stimuli: surplus workers must terminate cleanly after
  // losing the claim race, and the verdict must be unaffected.
  const auto a = circuits::grover(4, 3);
  const auto b = circuits::grover(4, 3);
  check::Configuration config;
  config.runAlternating = false;
  config.simulationThreads = 8;
  config.simulationRuns = 4;
  const auto result = check::checkEquivalence(a, b, config);
  EXPECT_EQ(result.criterion,
            check::EquivalenceCriterion::ProbablyEquivalent);
  EXPECT_EQ(result.performedSimulations, 4U);
}

TEST(ThreadingStressTest, ConcurrentManagersAreIndependent) {
  // Several managers running on their own threads at once: every DD package
  // is engine-local, so nothing may be shared between the managers.
  const auto a = circuits::qft(4);
  auto b = circuits::qft(4);
  std::vector<std::thread> threads;
  std::vector<check::EquivalenceCriterion> verdicts(4);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    threads.emplace_back([&, i]() {
      auto config = stressConfig();
      config.simulationThreads = 2;
      verdicts[i] = check::checkEquivalence(a, b, config).criterion;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto v : verdicts) {
    EXPECT_TRUE(provedEquivalent(v));
  }
}

TEST(ThreadingStressTest, TaskPoolGroupChurnUnderContention) {
  // Many short-lived groups on one pool from several submitting threads:
  // the TSan workload for the pool's queue/wait/wake handshakes.
  check::TaskPool pool(4);
  std::vector<std::thread> submitters;
  std::atomic<int> total{0};
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        check::TaskGroup group(pool);
        for (int i = 0; i < 16; ++i) {
          group.submit([&total] {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        }
        group.wait();
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  EXPECT_EQ(total.load(), 3 * 20 * 16);
}

TEST(ThreadingStressTest, RacedEnginesCancelTheirSiblings) {
  // The two-slot race: proportional alternating and simulation. The
  // alternating slot's definitive verdict must cancel its sibling through
  // the release store (the simulation slot faces far more runs than it can
  // finish).
  const auto a = circuits::qft(6);
  const auto b = circuits::qft(6);
  auto config = stressConfig();
  config.simulationThreads = 1;
  config.simulationRuns = 100000;
  for (int repeat = 0; repeat < 4; ++repeat) {
    check::EquivalenceCheckingManager manager(a, b, config);
    const auto result = manager.run();
    EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
    const auto& slots = manager.engineResults();
    ASSERT_EQ(slots.size(), 2U);
    EXPECT_EQ(slots[0].method, "dd-alternating(proportional)");
    EXPECT_TRUE(provedEquivalent(slots[0].criterion)) << slots[0].toString();
    EXPECT_EQ(slots[1].criterion, check::EquivalenceCriterion::Cancelled)
        << slots[1].toString();
  }
}

} // namespace
} // namespace veriqc
