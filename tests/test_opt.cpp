#include "circuits/benchmarks.hpp"
#include "compile/decompose.hpp"
#include "opt/optimizer.hpp"
#include "sim/dense.hpp"

#include <gtest/gtest.h>

namespace veriqc {
namespace {

void expectEquivalent(const QuantumCircuit& a, const QuantumCircuit& b,
                      const std::string& label) {
  const auto ua = sim::circuitUnitary(a);
  const auto ub = sim::circuitUnitary(b);
  EXPECT_TRUE(ua.equalsUpToGlobalPhase(ub, 1e-8)) << label;
}

TEST(OptimizerTest, RemoveIdentities) {
  QuantumCircuit c(2);
  c.i(0);
  c.rz(1, 0.0);
  c.h(0);
  c.rx(1, 4.0 * PI);
  EXPECT_EQ(opt::removeIdentities(c), 3U);
  EXPECT_EQ(c.size(), 1U);
}

TEST(OptimizerTest, CancelInversePairs) {
  QuantumCircuit c(2);
  c.h(0);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.t(0);
  c.tdg(0);
  c.s(1);
  c.x(0); // separates s from sdg on a different wire? no - wire 1
  c.sdg(1);
  EXPECT_GE(opt::cancelInversePairs(c), 8U);
  // Only the lone x survives.
  EXPECT_EQ(c.gateCount(), 1U);
  EXPECT_EQ(c.ops()[0].type, OpType::X);
}

TEST(OptimizerTest, CancellationBlockedByInterveningGate) {
  QuantumCircuit c(2);
  c.h(0);
  c.cx(0, 1); // touches qubit 0: blocks
  c.h(0);
  EXPECT_EQ(opt::cancelInversePairs(c), 0U);
  EXPECT_EQ(c.size(), 3U);
}

TEST(OptimizerTest, MergeRotations) {
  QuantumCircuit c(2);
  c.rz(0, 0.3);
  c.rz(0, 0.4);
  c.crz(0, 1, 0.2);
  c.crz(0, 1, -0.2);
  const auto merged = opt::mergeRotations(c);
  EXPECT_EQ(merged, 2U);
  ASSERT_EQ(c.size(), 1U);
  EXPECT_NEAR(c.ops()[0].params[0], 0.7, 1e-12);
}

TEST(OptimizerTest, FuseSingleQubitGates) {
  QuantumCircuit c(2);
  c.h(0);
  c.t(0);
  c.rx(0, 0.3);
  c.cx(0, 1);
  const auto before = c;
  EXPECT_EQ(opt::fuseSingleQubitGates(c), 2U);
  EXPECT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].type, OpType::U3);
  expectEquivalent(before, c, "fusion");
  // Strict equality including global phase.
  const auto ua = sim::circuitUnitary(before);
  const auto ub = sim::circuitUnitary(c);
  EXPECT_TRUE(ua.equals(ub, 1e-9));
}

TEST(OptimizerTest, FusionHandlesDiagonalAndAntidiagonalRuns) {
  QuantumCircuit diag(1);
  diag.t(0);
  diag.s(0);
  auto diagOpt = diag;
  opt::fuseSingleQubitGates(diagOpt);
  EXPECT_TRUE(sim::circuitUnitary(diag).equals(sim::circuitUnitary(diagOpt),
                                               1e-9));
  QuantumCircuit anti(1);
  anti.x(0);
  anti.z(0);
  auto antiOpt = anti;
  opt::fuseSingleQubitGates(antiOpt);
  EXPECT_TRUE(sim::circuitUnitary(anti).equals(sim::circuitUnitary(antiOpt),
                                               1e-9));
}

TEST(OptimizerTest, ReconstructSwaps) {
  QuantumCircuit c(3);
  c.cx(0, 1);
  c.cx(1, 0);
  c.cx(0, 1);
  c.h(2);
  const auto before = c;
  EXPECT_EQ(opt::reconstructSwaps(c), 1U);
  EXPECT_EQ(c.gateCount(), 2U);
  EXPECT_TRUE(c.ops()[0].isBareSwap());
  expectEquivalent(before, c, "swap reconstruction");
}

TEST(OptimizerTest, ReconstructSwapsIgnoresWrongPattern) {
  QuantumCircuit c(2);
  c.cx(0, 1);
  c.cx(0, 1);
  c.cx(1, 0);
  EXPECT_EQ(opt::reconstructSwaps(c), 0U);
}

TEST(OptimizerTest, ReconstructSwapsRewritesBackToBackTriples) {
  // Routing emits SWAP chains: consecutive triples on the same and on
  // overlapping wires, with unrelated gates interleaved. One pass must
  // rewrite every triple a repeated front-to-back rescan would.
  QuantumCircuit c(4);
  for (int rep = 0; rep < 2; ++rep) {
    c.cx(0, 1);
    c.h(3);
    c.cx(1, 0);
    c.cx(0, 1);
  }
  c.cx(1, 2);
  c.cx(2, 1);
  c.cx(1, 2);
  c.cx(2, 1); // a fourth CX: the triple ends before it
  const auto before = c;
  EXPECT_EQ(opt::reconstructSwaps(c), 3U);
  ASSERT_EQ(c.gateCount(), 6U);
  EXPECT_TRUE(c.ops()[0].isBareSwap());
  EXPECT_EQ(c.ops()[1].type, OpType::H);
  EXPECT_TRUE(c.ops()[2].isBareSwap());
  EXPECT_EQ(c.ops()[3].type, OpType::H);
  EXPECT_TRUE(c.ops()[4].isBareSwap());
  EXPECT_EQ(c.ops()[5].type, OpType::X);
  expectEquivalent(before, c, "back-to-back swap reconstruction");
}

TEST(OptimizerTest, OptimizePreservesSemantics) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomCircuit(4, 40, seed);
    const auto optimized = opt::optimize(c);
    expectEquivalent(c, optimized, "seed " + std::to_string(seed));
  }
}

TEST(OptimizerTest, OptimizeShrinksDecomposedBenchmarks) {
  // Sec. 6.1's second use case: optimized versions are smaller (|G'| < |G|).
  const std::vector<QuantumCircuit> cases = {
      compile::decomposeToCnot(circuits::grover(3, 5)),
      compile::decomposeToCnot(circuits::quantumWalk(3, 2)),
      compile::decomposeToCnot(circuits::urfLike(4, 12, 7))};
  for (const auto& c : cases) {
    const auto optimized = opt::optimize(c);
    EXPECT_LT(optimized.gateCount(), c.gateCount()) << c.name();
    expectEquivalent(c, optimized, c.name());
  }
}

TEST(OptimizerTest, OptimizeKeepsPermutations) {
  auto c = circuits::qft(3, false);
  const auto optimized = opt::optimize(c);
  EXPECT_EQ(optimized.outputPermutation(), c.outputPermutation());
}

} // namespace
} // namespace veriqc
