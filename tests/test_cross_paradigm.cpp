/// Randomized agreement checks between the DD and ZX paradigms, plus the
/// manager's sequential-skip and the ZX checker's stop-attribution contracts.
#include "check/manager.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/error_injection.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace veriqc::check {
namespace {

Configuration quickConfig() {
  Configuration config;
  config.simulationRuns = 8;
  config.seed = 7;
  return config;
}

// --- cross-paradigm agreement ------------------------------------------------

TEST(CrossParadigmTest, ZXAndAlternatingAgreeOnCliffordTInverses) {
  // Composing a Clifford+T circuit with its own inverse lets the phases
  // cancel (Sec. 6.2), so both paradigms must prove equivalence.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = circuits::randomCliffordT(4, 10, 0.25, seed);
    const auto zx = zxCheck(c, c);
    EXPECT_EQ(zx.criterion, EquivalenceCriterion::EquivalentUpToGlobalPhase)
        << "seed " << seed << ": " << zx.toString();
    const auto dd = ddAlternatingCheck(c, c, quickConfig());
    EXPECT_TRUE(provedEquivalent(dd.criterion)) << "seed " << seed;
  }
}

TEST(CrossParadigmTest, SingleGateMutantsNeverProveEquivalent) {
  // The ZX engine is incomplete but sound: for a circuit damaged by either
  // error model it may fail to decide, but it must never certify
  // equivalence — and the DD checker must prove non-equivalence.
  std::mt19937_64 rng(17);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto base = circuits::randomCliffordT(4, 12, 0.2, seed);
    const auto mutant = (seed % 2 == 0)
                            ? circuits::removeRandomGate(base, rng)
                            : circuits::flipRandomCnot(base, rng);
    ASSERT_TRUE(mutant.has_value()) << "seed " << seed;
    const auto dd = ddAlternatingCheck(base, *mutant, quickConfig());
    if (dd.criterion != EquivalenceCriterion::NotEquivalent) {
      // Rarely the mutation is a no-op (e.g. flipping a CNOT sandwiched in
      // a symmetric context); agreement is all that can be required then.
      continue;
    }
    const auto zx = zxCheck(base, *mutant);
    EXPECT_FALSE(provedEquivalent(zx.criterion))
        << "seed " << seed << ": " << zx.toString();
  }
}

// --- oracle agreement on Table 1 pairs --------------------------------------
//
// A parallel manager run races the alternating scheme under two oracles; the
// first definitive verdict wins, so the two must never disagree. Both are
// exact, so on every Table 1 pair (each configuration: equivalent, one gate
// missing, flipped CNOT) they must return the same verdict class — and the
// dense baseline the same one where it applies.

std::string verdictClass(const EquivalenceCriterion criterion) {
  if (provedEquivalent(criterion)) {
    return "EQ";
  }
  return criterion == EquivalenceCriterion::NotEquivalent
             ? "NEQ"
             : "undecided(" + toString(criterion) + ")";
}

void expectOraclesAgree(const QuantumCircuit& g, const QuantumCircuit& gPrime,
                        const std::uint64_t errorSeed,
                        const std::string& table) {
  for (int kind = 0; kind < 3; ++kind) {
    std::mt19937_64 rng(errorSeed);
    const auto damaged = kind == 0   ? std::optional{gPrime}
                         : kind == 1 ? circuits::removeRandomGate(gPrime, rng)
                                     : circuits::flipRandomCnot(gPrime, rng);
    ASSERT_TRUE(damaged.has_value()) << table << " " << g.name();
    SCOPED_TRACE(table + " " + g.name() + " config " + std::to_string(kind));
    Configuration config;
    config.timeout = std::chrono::seconds(60);
    config.oracle = OracleStrategy::Proportional;
    const auto proportional = ddAlternatingCheck(g, *damaged, config);
    config.oracle = OracleStrategy::Lookahead;
    const auto lookahead = ddAlternatingCheck(g, *damaged, config);
    const auto expected = kind == 0 ? "EQ" : "NEQ";
    EXPECT_EQ(verdictClass(proportional.criterion), expected);
    EXPECT_EQ(verdictClass(lookahead.criterion), expected);
    if (alignCircuits(g, *damaged).first.numQubits() <= 10) {
      EXPECT_EQ(verdictClass(denseCheck(g, *damaged).criterion), expected);
    }
  }
}

TEST(OracleAgreementTest, CompiledTable1PairsAgree) {
  // Table 1(a): original vs. its heavy-hex compilation, at the error seeds
  // of bench/table1_compiled (1000 + row index).
  const auto arch = compile::Architecture::ibmManhattanLike();
  const std::vector<std::pair<QuantumCircuit, std::uint64_t>> rows = {
      {circuits::grover(4, 11), 1000},
      {circuits::qft(8), 1003},
      {circuits::quantumWalk(4, 3), 1006},
      {circuits::randomGraphState(30, 10, 1), 1014},
  };
  for (const auto& [original, seed] : rows) {
    expectOraclesAgree(original,
                       compile::compileForArchitecture(original, arch), seed,
                       "table1a");
  }
}

TEST(OracleAgreementTest, OptimizedTable1PairsAgree) {
  // Table 1(b): decomposed vs. optimized, at bench/table1_optimized's error
  // seeds (2000 + row index); every pair is small enough for the dense check.
  const std::vector<std::pair<QuantumCircuit, std::uint64_t>> rows = {
      {circuits::grover(4, 11), 2003},
      {circuits::qft(8), 2006},
      {circuits::quantumWalk(4, 3), 2009},
  };
  for (const auto& [original, seed] : rows) {
    const auto decomposed = compile::decomposeToCnot(original);
    expectOraclesAgree(decomposed, opt::optimize(decomposed), seed,
                       "table1b");
  }
}

// --- manager sequential skipping ---------------------------------------------

TEST(ManagerSequentialTest, SkipsRemainingEnginesAfterDefinitiveVerdict) {
  Configuration config = quickConfig();
  config.parallel = false;
  config.runZX = true;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto result = manager.run();
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 3U);
  // The alternating checker settles the question immediately; everything
  // after it must be left untouched and honestly marked as skipped.
  EXPECT_TRUE(isDefinitive(slots[0].criterion)) << slots[0].toString();
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::NotRun);
  EXPECT_EQ(slots[2].criterion, EquivalenceCriterion::NotRun);
  EXPECT_EQ(slots[2].method, "zx-calculus");
  EXPECT_EQ(slots[1].runtimeSeconds, 0.0);
}

TEST(ManagerSequentialTest, NotRunSlotsNeverWinTheCombinedVerdict) {
  Configuration config = quickConfig();
  config.parallel = false;
  config.runAlternating = false;
  config.runSimulation = false;
  config.runZX = true;
  // Arbitrary-angle optimized pairs can leave the (incomplete) ZX engine
  // with NoInformation; the combined verdict must still be that engine's
  // real outcome, never a synthetic NotRun.
  auto damaged = circuits::ghz(3);
  damaged.ops().pop_back();
  const auto result = checkEquivalence(circuits::ghz(3), damaged, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NoInformation)
      << result.toString();
}

// --- ZX checker stop attribution ---------------------------------------------

TEST(ZXStopAttributionTest, SiblingCancellationIsNotATimeout) {
  const auto c = circuits::randomCliffordT(4, 10, 0.2, 1);
  Configuration config; // no deadline configured
  const auto result = zxCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(ZXStopAttributionTest, PreTrippedTokenStopsBeforeTheDiagramIsBuilt) {
  // The set-up (decomposition, conversion, composition) polls the token
  // between its steps, so a run stopped before it starts builds nothing.
  const auto c = circuits::randomCliffordT(6, 200, 0.2, 5);
  const auto result = zxCheck(c, c, Configuration{}, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  EXPECT_EQ(result.remainingSpiders, 0U);
  EXPECT_TRUE(result.zxRuleStats.empty());
}

TEST(ZXStopAttributionTest, DeadlineExpiryIsATimeout) {
  // The checker measures its deadline from its own start, so the workload
  // must reliably outlast the 1 ms budget (this reduction takes tens of
  // milliseconds even in Release builds).
  const auto c = circuits::randomClifford(16, 200, 2);
  Configuration config;
  config.timeout = std::chrono::milliseconds(1);
  const auto result = zxCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Timeout)
      << result.toString();
}

TEST(ZXStopAttributionTest, CompletedRunReportsRuleStats) {
  const auto c = circuits::randomCliffordT(4, 10, 0.25, 3);
  const auto result = zxCheck(c, c);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::EquivalentUpToGlobalPhase);
  EXPECT_GT(result.rewrites, 0U);
  // The structured per-rule stats include spider fusion. Their rewrite
  // counts are a subset of the engine total: toGraphLike() fuses spiders
  // during normalization, outside any attributed worklist pass.
  ASSERT_FALSE(result.zxRuleStats.empty());
  std::size_t total = 0;
  bool sawSpider = false;
  for (const auto& stat : result.zxRuleStats) {
    EXPECT_GT(stat.candidates, 0U) << stat.rule;
    EXPECT_GE(stat.candidates, stat.matches) << stat.rule;
    total += stat.rewrites;
    sawSpider = sawSpider || stat.rule == "spider";
  }
  EXPECT_TRUE(sawSpider);
  EXPECT_GT(total, 0U);
  EXPECT_LE(total, result.rewrites);
  // The text digest is rendered from the same data and reaches the
  // human-readable summary.
  EXPECT_NE(result.zxRuleDigest().find("spider"), std::string::npos)
      << result.zxRuleDigest();
  EXPECT_NE(result.toString().find("zx rules"), std::string::npos);
  // The engine also feeds the named counter registry.
  EXPECT_TRUE(result.counters.contains("zx.rewrites"));
}

// --- configuration knobs -----------------------------------------------------

TEST(ZXConfigTest, GadgetRulesOffStillProvesCliffordPairs) {
  Configuration config;
  config.zxGadgetRules = false;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomClifford(4, 12, seed);
    const auto result = zxCheck(c, c, config);
    EXPECT_EQ(result.criterion,
              EquivalenceCriterion::EquivalentUpToGlobalPhase)
        << "seed " << seed << ": " << result.toString();
  }
}

TEST(ZXConfigTest, PhaseSnapRecoversNoisyCliffordTAngles) {
  // Perturb every T phase by ~1e-13: with the default snap tolerance the
  // ZX engine sees exact PiRationals and still proves equivalence.
  const auto clean = circuits::randomCliffordT(4, 12, 0.3, 9);
  auto noisy = clean;
  for (auto& op : noisy.ops()) {
    if (op.type == OpType::T) {
      op.type = OpType::RZ;
      op.params = {PI / 4.0 + 1e-13};
    }
  }
  const auto snapped = zxCheck(clean, noisy);
  EXPECT_EQ(snapped.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase)
      << snapped.toString();
  // With snapping effectively disabled the noisy angles stay irrational,
  // the phases no longer cancel symbolically, and the sound engine must
  // refuse to certify (it may not claim non-equivalence either).
  Configuration strict;
  strict.zxPhaseSnapTolerance = 0.0;
  const auto unsnapped = zxCheck(clean, noisy, strict);
  EXPECT_NE(unsnapped.criterion, EquivalenceCriterion::NotEquivalent);
}

// --- DD checker stop attribution ---------------------------------------------
//
// The same contract zxCheck already honors: a tripped stop token before the
// locally tracked deadline can only mean a sibling engine's definitive
// verdict, so the slot must read Cancelled; only past the deadline is it a
// Timeout. Both DD gate-application checkers used to stamp Timeout
// unconditionally.

TEST(DDStopAttributionTest, AlternatingSiblingCancellationIsNotATimeout) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig(); // no deadline configured
  const auto result = ddAlternatingCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(DDStopAttributionTest, AlternatingDeadlineExpiryIsATimeout) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig();
  config.timeout = std::chrono::milliseconds(1);
  // The token itself outwaits the 1 ms budget before tripping, so by the
  // time the checker attributes the stop the deadline has provably passed —
  // deterministic regardless of how fast the gate loop runs.
  const auto result = ddAlternatingCheck(c, c, config, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Timeout)
      << result.toString();
}

TEST(DDStopAttributionTest, AbortedAlternatingRunKeepsTruncatedTrace) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig();
  config.recordTrace = true;
  // Let a few gates through before tripping so there is a prefix to keep.
  std::size_t polls = 0;
  const auto result =
      ddAlternatingCheck(c, c, config, [&polls] { return ++polls > 8; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  EXPECT_FALSE(result.sizeTrace.empty())
      << "early-return path dropped the requested size trace";
  EXPECT_GT(result.peakNodes, 0U);
}

TEST(ManagerCancellationTest, SiblingVerdictRecordsCancelledSlot) {
  // Parallel manager with no deadline: the alternating checker proves the
  // pair equivalent in milliseconds while the simulation engine faces far
  // more runs than it can finish; its slot must then read Cancelled — with
  // no timeout configured, Timeout would be a misattribution.
  Configuration config;
  config.parallel = true;
  config.simulationRuns = 100000;
  config.simulationThreads = 1;
  config.seed = 7;
  EquivalenceCheckingManager manager(circuits::qft(10), circuits::qft(10),
                                     config);
  const auto combined = manager.run();
  EXPECT_TRUE(provedEquivalent(combined.criterion)) << combined.toString();
  const auto& slots = manager.engineResults();
  // Proportional alternating, simulation, raced lookahead alternating:
  // either alternating slot may prove it first.
  ASSERT_EQ(slots.size(), 3U);
  EXPECT_TRUE(isDefinitive(slots[0].criterion) ||
              isDefinitive(slots[2].criterion))
      << slots[0].toString() << "\n" << slots[2].toString();
  EXPECT_NE(slots[1].criterion, EquivalenceCriterion::Timeout)
      << slots[1].toString();
  // The slot either got cancelled mid-flight or — on a very fast machine —
  // never observed the flag between two runs; both are honest, Timeout is
  // not. On every realistic schedule 100k runs cannot complete, so also
  // assert the cancellation actually happened.
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::Cancelled)
      << slots[1].toString();
}

// --- simulation checker stimulus accounting ----------------------------------

TEST(SimulationAccountingTest, PreTrippedStopClaimsNoStimuli) {
  // Regression: the worker loop used to claim a stimulus index *before*
  // polling the stop token, so a cancelled run still bumped the claim
  // counter for every worker — phantom stimuli that were never simulated.
  // With the poll moved before the claim, a pre-tripped token must leave
  // both counters at exactly zero.
  const auto c = circuits::randomCliffordT(4, 12, 0.2, 5);
  Configuration config = quickConfig();
  config.simulationRuns = 64;
  config.simulationThreads = 4;
  const auto result = ddSimulationCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  EXPECT_EQ(result.performedSimulations, 0U);
  ASSERT_TRUE(result.counters.contains("sim.stimuli.claimed"));
  ASSERT_TRUE(result.counters.contains("sim.stimuli.performed"));
  EXPECT_EQ(result.counters.value("sim.stimuli.claimed"), 0.0);
  EXPECT_EQ(result.counters.value("sim.stimuli.performed"), 0.0);
}

TEST(SimulationAccountingTest, CompletedRunClaimsExactlyTheConfiguredRuns) {
  const auto c = circuits::randomCliffordT(4, 12, 0.2, 6);
  Configuration config = quickConfig();
  config.simulationRuns = 8;
  config.simulationThreads = 4;
  const auto result = ddSimulationCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ProbablyEquivalent)
      << result.toString();
  EXPECT_EQ(result.counters.value("sim.stimuli.claimed"), 8.0);
  EXPECT_EQ(result.counters.value("sim.stimuli.performed"), 8.0);
  EXPECT_EQ(result.performedSimulations, 8U);
}

TEST(SimulationAccountingTest, MidRunCancellationNeverOverclaims) {
  // Trip the token after a few polls: claimed counts only indices whose
  // simulation actually started, performed only those that finished, and
  // neither may exceed the configured run count.
  const auto c = circuits::randomCliffordT(4, 16, 0.2, 7);
  Configuration config = quickConfig();
  config.simulationRuns = 32;
  config.simulationThreads = 4;
  std::atomic<std::size_t> polls{0};
  const auto result = ddSimulationCheck(
      c, c, config, [&polls] { return polls.fetch_add(1) >= 6; });
  const auto claimed = result.counters.value("sim.stimuli.claimed");
  const auto performed = result.counters.value("sim.stimuli.performed");
  EXPECT_LE(performed, claimed);
  EXPECT_LE(claimed, 32.0);
  EXPECT_EQ(static_cast<double>(result.performedSimulations), performed);
}

// --- deadline latency ----------------------------------------------------------
//
// A deadline bounds wall time. The DD package polls the stop inside
// multiply/add, so neither a single engine nor a manager run may overrun its
// budget by more than a slack fixed here before measuring. Polls between gate
// applications only let compiled grover_6 overrun 200 ms by 0.2-0.9 s, and
// naive graph_state_62 run 19 s past a 1 s budget.

constexpr auto kLatencyBudget = std::chrono::milliseconds(200);

// The slack is fixed for uninstrumented builds. Sanitizers slow the set-up
// no stop poll covers (circuit alignment, ZX conversion, teardown) 5-15x, so
// their builds scale it: still far below the multi-second overruns of an
// uninterruptible multiply.
#if defined(__SANITIZE_THREAD__)
constexpr int kInstrumentationFactor = 8;
#elif defined(__SANITIZE_ADDRESS__)
constexpr int kInstrumentationFactor = 4;
#else
constexpr int kInstrumentationFactor = 1;
#endif
constexpr auto kLatencySlack =
    std::chrono::milliseconds(250) * kInstrumentationFactor;

/// Table 1(a)'s grover_6 row: the circuit and its heavy-hex compilation.
struct CompiledPair {
  QuantumCircuit original;
  QuantumCircuit compiled;
};

CompiledPair compiledPair(QuantumCircuit original) {
  CompiledPair pair{std::move(original), QuantumCircuit(1)};
  pair.compiled = compile::compileForArchitecture(
      pair.original, compile::Architecture::ibmManhattanLike());
  return pair;
}

CompiledPair compiledGrover6() { return compiledPair(circuits::grover(6, 37)); }

/// The grover_6 configuration under test. The naive oracle keeps every
/// engine busy well past the budget (proportional decides this pair in
/// about 0.1 s, which would leave no deadline to observe).
Configuration latencyConfig() {
  Configuration config;
  config.timeout = kLatencyBudget;
  config.oracle = OracleStrategy::Naive;
  return config;
}

template <typename Run>
std::chrono::milliseconds elapsedOf(Run&& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

/// A slot stopped by the deadline must read Timeout; one that beat the
/// deadline (a much faster machine) has a verdict instead.
void expectTimedOutOrDecided(const Result& result) {
  EXPECT_TRUE(result.criterion == EquivalenceCriterion::Timeout ||
              provedEquivalent(result.criterion) ||
              result.criterion == EquivalenceCriterion::ProbablyEquivalent)
      << result.toString();
}

TEST(DeadlineLatencyTest, EveryDDEngineStopsWithinTheBound) {
  // Standalone engines get no token: their own deadline stops them.
  const auto pair = compiledGrover6();
  const auto config = latencyConfig();
  // The adversarial case: graph_state_62 under the naive oracle builds
  // diagrams whose single multiply used to run for many seconds.
  const auto graph = compiledPair(circuits::randomGraphState(62, 20, 2));
  const std::vector<std::pair<std::string, std::function<Result()>>> engines = {
      {"alternating", [&] {
         return ddAlternatingCheck(pair.original, pair.compiled, config);
       }},
      {"construction", [&] {
         return ddConstructionCheck(pair.original, pair.compiled, config);
       }},
      {"simulation", [&] {
         return ddSimulationCheck(pair.original, pair.compiled, config);
       }},
      {"alternating graph_state_62", [&] {
         return ddAlternatingCheck(graph.original, graph.compiled, config);
       }},
  };
  for (const auto& [name, run] : engines) {
    SCOPED_TRACE(name);
    Result result;
    const auto elapsed = elapsedOf([&] { result = run(); });
    EXPECT_LE(elapsed, kLatencyBudget + kLatencySlack) << result.toString();
    expectTimedOutOrDecided(result);
  }
}

void expectManagerHoldsTheDeadline(const bool parallel) {
  const auto pair = compiledGrover6();
  auto config = latencyConfig();
  config.runZX = true;
  config.parallel = parallel;
  EquivalenceCheckingManager manager(pair.original, pair.compiled, config);
  Result combined;
  const auto elapsed = elapsedOf([&] { combined = manager.run(); });
  EXPECT_LE(elapsed, kLatencyBudget + kLatencySlack) << combined.toString();
  const auto& slots = manager.engineResults();
  const bool decided = std::any_of(slots.begin(), slots.end(),
                                   [](const Result& slot) {
                                     return isDefinitive(slot.criterion);
                                   });
  if (decided) {
    EXPECT_TRUE(isDefinitive(combined.criterion)) << combined.toString();
    return;
  }
  // No slot settled the pair, so the deadline stopped every one of them:
  // each reads Timeout (never Cancelled, which would claim a sibling
  // verdict that does not exist), and so does the run.
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::Timeout)
      << combined.toString();
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.criterion, EquivalenceCriterion::Timeout)
        << slot.toString();
  }
}

TEST(DeadlineLatencyTest, SequentialManagerStopsWithinTheBound) {
  expectManagerHoldsTheDeadline(false);
}

TEST(DeadlineLatencyTest, ParallelManagerStopsWithinTheBound) {
  expectManagerHoldsTheDeadline(true);
}

TEST(DeadlineAttributionTest, RetriedAttemptStoppedByTheRunDeadlineIsATimeout) {
  // The first attempt fails on an injected fault; the retry starts later, so
  // its own deadline lags the run's by a whole attempt. The run's deadline
  // stops it, and the slot must say so. Naive graph_state_62 runs for many
  // seconds, so the budget leaves ample room for the failed first attempt
  // even in instrumented builds.
  const auto pair = compiledPair(circuits::randomGraphState(62, 20, 2));
  auto config = latencyConfig();
  config.timeout = std::chrono::seconds(1);
  config.runSimulation = false;
  config.parallel = false;
  config.engineRetryLimit = 1;
  config.faultPlan = "dd.gc:after=20:times=1";
  EquivalenceCheckingManager manager(pair.original, pair.compiled, config);
  const auto combined = manager.run();
  ASSERT_EQ(manager.engineResults().size(), 1U);
  const auto& slot = manager.engineResults()[0];
  ASSERT_EQ(slot.attempts.size(), 2U) << slot.toString();
  EXPECT_EQ(slot.attempts[0].criterion, "resource_exhausted");
  EXPECT_EQ(slot.attempts[1].criterion, "timeout");
  EXPECT_EQ(slot.criterion, EquivalenceCriterion::Timeout) << slot.toString();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::Timeout);
}

TEST(DenseStopTest, PreTrippedTokenIsCancelled) {
  const auto c = circuits::qft(6);
  const auto result = denseCheck(c, c, {}, 12, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(DenseStopTest, ManagerPassesItsDeadlineToTheDenseSlot) {
  // Building both qft_11 unitaries takes the dense engine seconds; the
  // run's deadline must stop it between two columns.
  const auto c = circuits::qft(11);
  Configuration config;
  config.runAlternating = false;
  config.runSimulation = false;
  config.runDense = true;
  config.timeout = kLatencyBudget;
  Result combined;
  const auto elapsed =
      elapsedOf([&] { combined = checkEquivalence(c, c, config); });
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::Timeout)
      << combined.toString();
  EXPECT_LE(elapsed, kLatencyBudget + kLatencySlack);
}

} // namespace
} // namespace veriqc::check
