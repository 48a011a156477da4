#include "check/manager.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/error_injection.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <vector>

namespace veriqc::check {
namespace {

using circuits::ghz;
using compile::Architecture;

Configuration quickConfig() {
  Configuration config;
  config.simulationRuns = 8;
  config.seed = 7;
  return config;
}

// --- construction checker ----------------------------------------------------

TEST(ConstructionCheckerTest, IdenticalCircuitsAreEquivalent) {
  const auto result = ddConstructionCheck(ghz(3), ghz(3));
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Equivalent);
}

TEST(ConstructionCheckerTest, GlobalPhaseIsDetected) {
  auto phased = ghz(3);
  phased.setGlobalPhase(0.4);
  const auto result = ddConstructionCheck(ghz(3), phased);
  EXPECT_EQ(result.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase);
}

TEST(ConstructionCheckerTest, DetectsMissingGate) {
  auto damaged = ghz(3);
  damaged.ops().pop_back();
  const auto result = ddConstructionCheck(ghz(3), damaged);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent);
  EXPECT_LT(result.hilbertSchmidtFidelity, 0.999);
}

// --- dense baseline -----------------------------------------------------------

TEST(DenseCheckTest, AgreesWithDDCheckers) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto a = circuits::randomCircuit(3, 20, seed);
    const auto b = circuits::randomCircuit(3, 20, seed + 100);
    const auto dense = denseCheck(a, b);
    const auto construction = ddConstructionCheck(a, b);
    EXPECT_EQ(provedEquivalent(dense.criterion),
              provedEquivalent(construction.criterion))
        << "seed " << seed;
  }
  const auto self = denseCheck(ghz(3), ghz(3));
  EXPECT_EQ(self.criterion, EquivalenceCriterion::Equivalent);
}

TEST(DenseCheckTest, RejectsLargeCircuits) {
  EXPECT_THROW((void)denseCheck(ghz(20), ghz(20)), CircuitError);
}

// --- alternating checker -----------------------------------------------------

class OracleTest : public ::testing::TestWithParam<OracleStrategy> {};

TEST_P(OracleTest, PaperExample5CompiledGhz) {
  // Fig. 2 / Example 5: GHZ mapped to the 5-qubit linear architecture; the
  // checker must absorb the reconstructed SWAP and equalize the output
  // permutation.
  Configuration config = quickConfig();
  config.oracle = GetParam();
  const auto compiled =
      compile::compileForArchitecture(ghz(3), Architecture::linear(5));
  const auto result = ddAlternatingCheck(ghz(3), compiled, config);
  EXPECT_TRUE(provedEquivalent(result.criterion))
      << toString(config.oracle) << ": " << result.toString();
}

TEST_P(OracleTest, RandomCircuitTimesInverse) {
  Configuration config = quickConfig();
  config.oracle = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomCircuit(4, 25, seed);
    const auto result = ddAlternatingCheck(c, c, config);
    EXPECT_TRUE(provedEquivalent(result.criterion)) << "seed " << seed;
  }
}

TEST_P(OracleTest, DetectsFlippedCnot) {
  Configuration config = quickConfig();
  config.oracle = GetParam();
  std::mt19937_64 rng(3);
  const auto damaged = circuits::flipRandomCnot(ghz(4), rng);
  ASSERT_TRUE(damaged.has_value());
  const auto result = ddAlternatingCheck(ghz(4), *damaged, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent);
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleTest,
                         ::testing::Values(OracleStrategy::Naive,
                                           OracleStrategy::Proportional,
                                           OracleStrategy::Lookahead));

TEST(AlternatingTest, HandlesRandomPermutations) {
  // Random layouts/output permutations on both sides; equivalence decided
  // against the dense ground truth.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(seed);
    auto c = circuits::randomCircuit(4, 20, seed);
    std::vector<Qubit> v(4);
    std::iota(v.begin(), v.end(), 0U);
    auto permuted = c;
    std::shuffle(v.begin(), v.end(), rng);
    permuted.initialLayout() = Permutation(v);
    std::shuffle(v.begin(), v.end(), rng);
    permuted.outputPermutation() = Permutation(v);
    const auto viaConstruction = ddConstructionCheck(c, permuted);
    const auto viaAlternating = ddAlternatingCheck(c, permuted, quickConfig());
    EXPECT_EQ(provedEquivalent(viaConstruction.criterion),
              provedEquivalent(viaAlternating.criterion))
        << "seed " << seed;
  }
}

TEST(AlternatingTest, EquivalentAgainstCompiledManhattan) {
  const auto arch = Architecture::ibmManhattanLike();
  const auto original = ghz(6);
  const auto compiled = compile::compileForArchitecture(original, arch);
  const auto result = ddAlternatingCheck(original, compiled, quickConfig());
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
}

TEST(AlternatingTest, SwapAbsorptionKeepsDiagramSmall) {
  // A pure SWAP network must be verified without building any large DD.
  QuantumCircuit swaps(6);
  for (Qubit q = 0; q + 1 < 6; ++q) {
    swaps.swap(q, q + 1);
  }
  QuantumCircuit asPermutation(6);
  std::vector<Qubit> outPerm{5, 0, 1, 2, 3, 4};
  asPermutation.outputPermutation() = Permutation(outPerm);
  const auto result = ddAlternatingCheck(swaps, asPermutation, quickConfig());
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  EXPECT_LE(result.peakNodes, 16U);
}

TEST(AlternatingTest, TraceShowsDiagramStaysNearIdentity) {
  // The Fig. 4 intuition: verifying a compiled circuit with the alternating
  // scheme keeps the diagram identity-sized throughout, far below the size
  // of the full system-matrix DD.
  Configuration config = quickConfig();
  config.recordTrace = true;
  const auto compiled =
      compile::compileForArchitecture(ghz(6), Architecture::linear(8));
  const auto result = ddAlternatingCheck(ghz(6), compiled, config);
  ASSERT_TRUE(provedEquivalent(result.criterion));
  ASSERT_FALSE(result.sizeTrace.empty());
  for (const auto nodes : result.sizeTrace) {
    EXPECT_LE(nodes, 24U); // identity on <= 8 wires is 8 nodes
  }
}

TEST(AlternatingTest, ExternalStopWithoutDeadlineIsCancelled) {
  // No deadline is configured, so a tripped stop token can only mean a
  // sibling engine's definitive verdict — the slot must read Cancelled,
  // not Timeout (the misattribution this checker used to commit).
  Configuration config = quickConfig();
  const auto c = circuits::randomCircuit(6, 200, 1);
  const auto result =
      ddAlternatingCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled);
}

// --- simulation checker --------------------------------------------------------

class StimuliKindTest : public ::testing::TestWithParam<sim::StimuliKind> {};

TEST_P(StimuliKindTest, EquivalentYieldsProbablyEquivalent) {
  Configuration config = quickConfig();
  config.stimuliKind = GetParam();
  const auto result = ddSimulationCheck(ghz(4), ghz(4), config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ProbablyEquivalent);
  EXPECT_EQ(result.performedSimulations, config.simulationRuns);
}

TEST_P(StimuliKindTest, DetectsInjectedErrors) {
  Configuration config = quickConfig();
  config.stimuliKind = GetParam();
  std::mt19937_64 rng(5);
  const auto base = circuits::grover(3, 4);
  const auto missing = circuits::removeRandomGate(base, rng);
  ASSERT_TRUE(missing.has_value());
  const auto result = ddSimulationCheck(base, *missing, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent)
      << sim::toString(GetParam());
  EXPECT_LE(result.performedSimulations, config.simulationRuns);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StimuliKindTest,
                         ::testing::Values(sim::StimuliKind::Classical,
                                           sim::StimuliKind::LocalQuantum,
                                           sim::StimuliKind::GlobalQuantum));

TEST(SimulationThreadsTest, VerdictDeterministicAcrossThreadCounts) {
  // Stimuli are seeded per run index, not per worker, so the counterexample
  // found must be identical no matter how runs are scheduled onto threads.
  std::mt19937_64 rng(5);
  const auto base = circuits::grover(3, 4);
  const auto missing = circuits::removeRandomGate(base, rng);
  ASSERT_TRUE(missing.has_value());
  Configuration config = quickConfig();
  config.simulationRuns = 16;
  std::vector<std::int64_t> counterexamples;
  for (const auto threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    config.simulationThreads = threads;
    const auto result = ddSimulationCheck(base, *missing, config);
    EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent)
        << threads << " threads";
    ASSERT_GE(result.counterexampleStimulus, 0) << threads << " threads";
    counterexamples.push_back(result.counterexampleStimulus);
  }
  EXPECT_EQ(counterexamples[1], counterexamples[0]);
  EXPECT_EQ(counterexamples[2], counterexamples[0]);
}

TEST(SimulationThreadsTest, EquivalentPairAgreesAcrossThreadCounts) {
  Configuration config = quickConfig();
  config.simulationRuns = 16;
  // 0 = one worker per hardware thread.
  for (const auto threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{0}}) {
    config.simulationThreads = threads;
    const auto result = ddSimulationCheck(ghz(4), ghz(4), config);
    EXPECT_EQ(result.criterion, EquivalenceCriterion::ProbablyEquivalent)
        << threads << " threads";
    EXPECT_EQ(result.performedSimulations, config.simulationRuns)
        << threads << " threads";
    EXPECT_GT(result.computeCacheStats.lookups, 0U) << threads << " threads";
  }
}

// --- ZX checker -----------------------------------------------------------------

TEST(ZXCheckerTest, PaperExample7CompiledGhz) {
  const auto compiled =
      compile::compileForArchitecture(ghz(3), Architecture::linear(5));
  const auto result = zxCheck(ghz(3), compiled);
  EXPECT_EQ(result.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase)
      << result.toString();
}

TEST(ZXCheckerTest, NonEquivalenceGivesNoInformation) {
  auto damaged = ghz(3);
  damaged.ops().pop_back();
  const auto result = zxCheck(ghz(3), damaged);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NoInformation);
}

TEST(ZXCheckerTest, HandlesMultiControlledViaDecomposition) {
  const auto c = circuits::grover(3, 2);
  const auto result = zxCheck(c, c);
  EXPECT_EQ(result.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase)
      << result.toString();
}

TEST(ZXCheckerTest, VerifiesOptimizedCircuits) {
  const auto original = compile::decomposeToCnot(circuits::quantumWalk(3, 1));
  const auto optimized = opt::optimize(original);
  const auto result = zxCheck(original, optimized);
  EXPECT_EQ(result.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase)
      << result.toString();
}

// --- manager ---------------------------------------------------------------------

TEST(ManagerTest, CombinedFlowEquivalent) {
  const auto compiled =
      compile::compileForArchitecture(ghz(4), Architecture::linear(6));
  const auto result = checkEquivalence(ghz(4), compiled, quickConfig());
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
}

TEST(ManagerTest, CombinedFlowNotEquivalent) {
  std::mt19937_64 rng(11);
  const auto compiled =
      compile::compileForArchitecture(ghz(4), Architecture::linear(6));
  const auto damaged = circuits::flipRandomCnot(compiled, rng);
  ASSERT_TRUE(damaged.has_value());
  const auto result = checkEquivalence(ghz(4), *damaged, quickConfig());
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent);
}

TEST(ManagerTest, SequentialModeMatchesParallel) {
  Configuration config = quickConfig();
  config.parallel = false;
  const auto result = checkEquivalence(ghz(3), ghz(3), config);
  EXPECT_TRUE(provedEquivalent(result.criterion));
}

TEST(ManagerTest, ZXEngineCanBeEnabled) {
  Configuration config = quickConfig();
  config.runZX = true;
  EquivalenceCheckingManager manager(ghz(3), ghz(3), config);
  const auto result = manager.run();
  EXPECT_TRUE(provedEquivalent(result.criterion));
  // Alternating, simulation, ZX, then the raced lookahead slot.
  ASSERT_EQ(manager.engineResults().size(), 4U);
  EXPECT_EQ(manager.engineResults()[2].method, "zx-calculus");
  EXPECT_EQ(manager.engineResults()[3].method, "dd-alternating(lookahead)");
}

// --- raced lookahead slot ----------------------------------------------------

std::vector<std::string> slotMethods(const EquivalenceCheckingManager& manager) {
  std::vector<std::string> methods;
  for (const auto& slot : manager.engineResults()) {
    methods.push_back(slot.method);
  }
  return methods;
}

TEST(LookaheadRaceTest, ParallelRunRacesBothOracles) {
  EquivalenceCheckingManager manager(ghz(4), ghz(4), quickConfig());
  const auto result = manager.run();
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  EXPECT_EQ(slotMethods(manager),
            (std::vector<std::string>{"dd-alternating(proportional)",
                                      "dd-simulation(classical)",
                                      "dd-alternating(lookahead)"}));
}

TEST(LookaheadRaceTest, SequentialRunKeepsOneAlternatingSlot) {
  std::mt19937_64 rng(11);
  const auto compiled =
      compile::compileForArchitecture(ghz(4), Architecture::linear(6));
  const auto damaged = circuits::flipRandomCnot(compiled, rng);
  ASSERT_TRUE(damaged.has_value());
  for (const auto* g : {&compiled, &*damaged}) {
    Configuration config = quickConfig();
    config.parallel = false;
    EquivalenceCheckingManager sequential(ghz(4), *g, config);
    const auto seqResult = sequential.run();
    config.parallel = true;
    EquivalenceCheckingManager parallel(ghz(4), *g, config);
    const auto parResult = parallel.run();
    EXPECT_EQ(provedEquivalent(seqResult.criterion),
              provedEquivalent(parResult.criterion));
    EXPECT_EQ(seqResult.criterion == EquivalenceCriterion::NotEquivalent,
              parResult.criterion == EquivalenceCriterion::NotEquivalent);
    EXPECT_TRUE(isDefinitive(seqResult.criterion)) << seqResult.toString();
    const auto methods = slotMethods(sequential);
    EXPECT_EQ(std::count(methods.begin(), methods.end(),
                         "dd-alternating(proportional)"),
              1);
    EXPECT_EQ(std::count(methods.begin(), methods.end(),
                         "dd-alternating(lookahead)"),
              0);
  }
}

TEST(LookaheadRaceTest, LookaheadOracleIsNotRacedTwice) {
  Configuration config = quickConfig();
  config.oracle = OracleStrategy::Lookahead;
  EquivalenceCheckingManager manager(ghz(4), ghz(4), config);
  const auto result = manager.run();
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  EXPECT_EQ(slotMethods(manager),
            (std::vector<std::string>{"dd-alternating(lookahead)",
                                      "dd-simulation(classical)"}));
}

TEST(LookaheadRaceTest, InjectedPoolWithoutSpareSlotGetsNoExtraSlot) {
  // Two engines on a two-slot shared pool: a third task would queue ahead
  // of simulation, so the race is not added.
  TaskPool tight(2);
  EquivalenceCheckingManager manager(ghz(4), ghz(4), quickConfig());
  manager.useTaskPool(&tight);
  EXPECT_TRUE(provedEquivalent(manager.run().criterion));
  EXPECT_EQ(slotMethods(manager),
            (std::vector<std::string>{"dd-alternating(proportional)",
                                      "dd-simulation(classical)"}));
  // One spare slot is enough.
  TaskPool spare(3);
  manager.useTaskPool(&spare);
  EXPECT_TRUE(provedEquivalent(manager.run().criterion));
  EXPECT_EQ(manager.engineResults().size(), 3U);
  EXPECT_EQ(manager.engineResults()[2].method, "dd-alternating(lookahead)");
}

TEST(LookaheadRaceTest, CompiledGraphStateIsDecided) {
  // graph_state_30 of Table 1(a): the lookahead oracle's home ground.
  const auto original = circuits::randomGraphState(30, 10, 1);
  const auto compiled = compile::compileForArchitecture(
      original, Architecture::ibmManhattanLike());
  std::mt19937_64 rng(1014); // bench/table1_compiled's error seed
  const auto damaged = circuits::flipRandomCnot(compiled, rng);
  ASSERT_TRUE(damaged.has_value());
  for (const auto* g : {&compiled, &*damaged}) {
    Configuration config = quickConfig();
    config.timeout = std::chrono::seconds(60);
    EquivalenceCheckingManager manager(original, *g, config);
    const auto result = manager.run();
    if (g == &compiled) {
      EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
    } else {
      EXPECT_EQ(result.criterion, EquivalenceCriterion::NotEquivalent)
          << result.toString();
    }
    const auto methods = slotMethods(manager);
    EXPECT_NE(std::find(methods.begin(), methods.end(),
                        "dd-alternating(lookahead)"),
              methods.end());
  }
}

TEST(ManagerTest, TimeoutProducesTimeout) {
  Configuration config = quickConfig();
  config.timeout = std::chrono::milliseconds(1);
  config.simulationRuns = 1000000;
  // A large circuit that cannot finish within 1 ms.
  const auto c = compile::decomposeToCnot(circuits::grover(7, 13));
  const auto result = checkEquivalence(c, c, config);
  EXPECT_FALSE(isDefinitive(result.criterion));
}

TEST(ManagerTest, NoEnginesYieldsNoInformation) {
  Configuration config;
  config.runAlternating = false;
  config.runSimulation = false;
  const auto result = checkEquivalence(ghz(3), ghz(3), config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NoInformation);
}

// --- fault containment and resource governance -------------------------------

TEST(FirewallTest, ThrowingEngineBecomesEngineErrorSlot) {
  // Regression: an engine throwing inside a manager thread used to unwind
  // into std::thread and std::terminate the process. Mismatched qubit counts
  // align to 20 qubits, so the dense engine throws CircuitError past its
  // size cap while the DD engines settle the (non-)equivalence.
  Configuration config = quickConfig();
  config.parallel = true;
  config.runDense = true;
  EquivalenceCheckingManager manager(ghz(2), ghz(20), config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::NotEquivalent)
      << combined.toString();
  const auto& slots = manager.engineResults();
  // The raced lookahead slot is appended after every configured engine.
  ASSERT_EQ(slots.size(), 4U);
  EXPECT_EQ(slots[3].method, "dd-alternating(lookahead)");
  EXPECT_EQ(slots[2].method, "dense");
  EXPECT_EQ(slots[2].criterion, EquivalenceCriterion::EngineError);
  EXPECT_FALSE(slots[2].errorMessage.empty());
  EXPECT_NE(slots[2].toString().find("engine error"), std::string::npos);
}

TEST(FirewallTest, SequentialModeContainsEngineErrorsToo) {
  // Only ZX (which cannot decide this pair: NoInformation, not definitive)
  // and dense (which throws): the sequential loop reaches the throwing
  // engine and must contain it, and a ran-but-undecided slot outranks the
  // EngineError slot in the combined verdict.
  Configuration config = quickConfig();
  config.parallel = false;
  config.runAlternating = false;
  config.runSimulation = false;
  config.runZX = true;
  config.runDense = true;
  EquivalenceCheckingManager manager(ghz(2), ghz(20), config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::NoInformation)
      << combined.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 2U);
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::EngineError);
  EXPECT_FALSE(slots[1].errorMessage.empty());
}

TEST(FirewallTest, DenseEngineWithinCapContributesNormally) {
  Configuration config = quickConfig();
  config.runDense = true;
  config.runAlternating = false;
  config.runSimulation = false;
  const auto result = checkEquivalence(ghz(3), ghz(3), config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Equivalent);
}

TEST(FirewallTest, AllEnginesFailingStillReturnsAResult) {
  // Only the dense engine, over its cap: the combined verdict must be the
  // EngineError slot itself — never an exception out of run().
  Configuration config = quickConfig();
  config.runAlternating = false;
  config.runSimulation = false;
  config.runDense = true;
  const auto result = checkEquivalence(ghz(2), ghz(20), config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::EngineError);
  EXPECT_FALSE(result.errorMessage.empty());
}

TEST(ResourceGovernorTest, NodeBudgetDegradesAlternatingCheck) {
  // Two unrelated 12-qubit circuits: the alternating product DD blows
  // through a 20k-node budget long before completing.
  Configuration config = quickConfig();
  config.maxDDNodes = 20000;
  const auto a = circuits::randomCircuit(12, 150, 1);
  const auto b = circuits::randomCircuit(12, 150, 2);
  const auto result = ddAlternatingCheck(a, b, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_NE(result.errorMessage.find("DD nodes"), std::string::npos)
      << result.errorMessage;
  EXPECT_NE(result.toString().find("resource exhausted"), std::string::npos);
}

TEST(ResourceGovernorTest, StressBudgetCappedManagerDegradesGracefully) {
  // The acceptance scenario: with a node budget the alternating engine runs
  // out (ResourceExhausted slot), the simulation engine's vector DDs stay
  // within budget and prove non-equivalence, and the combined verdict comes
  // from the survivor while recording who was resource-limited.
  Configuration config = quickConfig();
  config.parallel = false; // deterministic engine order
  config.maxDDNodes = 20000;
  const auto a = circuits::randomCircuit(12, 150, 1);
  const auto b = circuits::randomCircuit(12, 150, 2);
  EquivalenceCheckingManager manager(a, b, config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::NotEquivalent)
      << combined.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 2U);
  EXPECT_EQ(slots[0].criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::NotEquivalent);
  ASSERT_EQ(combined.resourceLimitedEngines.size(), 1U);
  EXPECT_EQ(combined.resourceLimitedEngines[0], slots[0].method);
  EXPECT_NE(combined.toString().find("resource-limited"), std::string::npos);
}

TEST(ResourceGovernorTest, ParallelBudgetCappedManagerStillDecides) {
  Configuration config = quickConfig();
  config.parallel = true;
  config.maxDDNodes = 20000;
  const auto a = circuits::randomCircuit(12, 150, 1);
  const auto b = circuits::randomCircuit(12, 150, 2);
  const auto combined = checkEquivalence(a, b, config);
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::NotEquivalent)
      << combined.toString();
}

TEST(ResourceGovernorTest, SimulationReportsResourceExhaustion) {
  // A budget so small even the vector DDs of a 12-qubit simulation trip it.
  Configuration config = quickConfig();
  config.maxDDNodes = 8;
  const auto a = circuits::randomCircuit(12, 60, 3);
  const auto result = ddSimulationCheck(a, a, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_FALSE(result.errorMessage.empty());
}

TEST(ResourceGovernorTest, MemoryBudgetTripsQuickly) {
  // Any process has more than 1 MB resident, so the throttled RSS check must
  // fire within the first handful of garbage-collection boundaries.
  Configuration config = quickConfig();
  config.maxMemoryMB = 1;
  const auto c = circuits::randomCircuit(6, 100, 4);
  const auto result = ddAlternatingCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_NE(result.errorMessage.find("resident memory"), std::string::npos)
      << result.errorMessage;
}

TEST(ResourceGovernorTest, ZXVertexBudgetReportsResourceExhaustion) {
  Configuration config = quickConfig();
  config.maxZXVertices = 8;
  const auto c = circuits::qft(4);
  const auto result = zxCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_NE(result.errorMessage.find("ZX vertices"), std::string::npos)
      << result.errorMessage;
}

TEST(ResourceGovernorTest, ZXBudgetSlotNeverBeatsSurvivingEngines) {
  // Sequential simulation-then-ZX: ProbablyEquivalent is not definitive, so
  // the loop continues into the budget-capped ZX engine — whose
  // ResourceExhausted must not displace the survivor's verdict.
  Configuration config = quickConfig();
  config.parallel = false;
  config.runAlternating = false;
  config.runZX = true;
  config.maxZXVertices = 8;
  EquivalenceCheckingManager manager(ghz(3), ghz(3), config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ProbablyEquivalent)
      << combined.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 2U);
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::ResourceExhausted);
  ASSERT_EQ(combined.resourceLimitedEngines.size(), 1U);
  EXPECT_EQ(combined.resourceLimitedEngines[0], "zx-calculus");
}

TEST(ResourceGovernorTest, UnlimitedBudgetsChangeNothing) {
  Configuration config = quickConfig();
  config.maxDDNodes = 0;
  config.maxZXVertices = 0;
  config.maxMemoryMB = 0;
  config.runZX = true;
  const auto result = checkEquivalence(ghz(4), ghz(4), config);
  EXPECT_TRUE(provedEquivalent(result.criterion));
  EXPECT_TRUE(result.resourceLimitedEngines.empty());
}

TEST(ErrorTaxonomyTest, HierarchyAndDiagnostics) {
  // Every library error derives from VeriqcError; ResourceLimitError keeps
  // its structured fields for programmatic retry logic.
  const ResourceLimitError e("DD nodes", 100, 250);
  EXPECT_EQ(e.resource(), "DD nodes");
  EXPECT_EQ(e.limit(), 100U);
  EXPECT_EQ(e.observed(), 250U);
  EXPECT_NE(std::string(e.what()).find("DD nodes"), std::string::npos);
  const CircuitError c("bad");
  EXPECT_NE(dynamic_cast<const VeriqcError*>(&c), nullptr);
  EXPECT_NE(dynamic_cast<const VeriqcError*>(&e), nullptr);
}

// --- cross-method consistency ------------------------------------------------------

TEST(CrossMethodTest, AllMethodsAgreeOnOptimizedPairs) {
  // Arbitrary-angle circuits: after ZYZ fusion the non-Clifford phases are
  // no longer pairwise inverses, so the (incomplete) ZX rewriting may only
  // answer NoInformation — it must never contradict the DD verdict
  // (Sec. 6.2: rewriting succeeds when phases cancel; here they need not).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto original =
        compile::decomposeToCnot(circuits::randomCircuit(4, 30, seed));
    const auto optimized = opt::optimize(original);
    const auto construction = ddConstructionCheck(original, optimized);
    const auto alternating =
        ddAlternatingCheck(original, optimized, quickConfig());
    const auto zx = zxCheck(original, optimized);
    EXPECT_TRUE(provedEquivalent(construction.criterion)) << "seed " << seed;
    EXPECT_TRUE(provedEquivalent(alternating.criterion)) << "seed " << seed;
    EXPECT_NE(zx.criterion, EquivalenceCriterion::NotEquivalent)
        << "seed " << seed;
  }
}

TEST(CrossMethodTest, ZXProvesCliffordTOptimizedPairs) {
  // On Clifford+T circuits the cancellation argument of Sec. 6.2 applies
  // and the ZX engine must prove equivalence.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto original = circuits::randomCliffordT(4, 8, 0.25, seed);
    auto shuffled = original;
    opt::cancelInversePairs(shuffled);
    opt::removeIdentities(shuffled);
    const auto zx = zxCheck(original, shuffled);
    EXPECT_TRUE(provedEquivalent(zx.criterion)) << "seed " << seed;
    const auto alternating =
        ddAlternatingCheck(original, shuffled, quickConfig());
    EXPECT_TRUE(provedEquivalent(alternating.criterion)) << "seed " << seed;
  }
}

TEST(CrossMethodTest, NoFalseNegativesOnDamagedCircuits) {
  std::mt19937_64 rng(23);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto original = circuits::urfLike(4, 12, seed);
    const auto damaged = circuits::removeRandomGate(original, rng);
    ASSERT_TRUE(damaged.has_value());
    const auto construction = ddConstructionCheck(original, *damaged);
    const auto alternating =
        ddAlternatingCheck(original, *damaged, quickConfig());
    const auto zx = zxCheck(original, *damaged);
    // Removing an MCX always changes a reversible function.
    EXPECT_EQ(construction.criterion, EquivalenceCriterion::NotEquivalent);
    EXPECT_EQ(alternating.criterion, EquivalenceCriterion::NotEquivalent);
    EXPECT_FALSE(provedEquivalent(zx.criterion)) << "seed " << seed;
  }
}

} // namespace
} // namespace veriqc::check
