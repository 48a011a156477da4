#include "circuits/benchmarks.hpp"
#include "sim/dense.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/simplify.hpp"
#include "zx/tensor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace veriqc::zx {
namespace {

/// Every pass must preserve the linear map up to a scalar.
void expectSoundness(const QuantumCircuit& c,
                     const std::function<void(Simplifier&)>& pass,
                     const std::string& label) {
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  Simplifier s(d);
  s.toGraphLike();
  pass(s);
  const auto after = toMatrix(d);
  EXPECT_TRUE(proportional(after, before)) << label << " on " << c.name();
}

QuantumCircuit zxFriendlyRandom(const std::uint64_t seed) {
  // Kept small: dense tensor validation is exponential in the spider count.
  auto c = circuits::randomCliffordT(2, 2, 0.25, seed);
  c.rz(0, PI / 8.0);
  c.cp(0, 1, PI / 4.0);
  c.swap(0, 1);
  return c;
}

TEST(ZXSimplifyTest, ToGraphLikeIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    const auto before = toMatrix(d);
    Simplifier s(d);
    s.toGraphLike();
    EXPECT_TRUE(proportional(toMatrix(d), before)) << "seed " << seed;
    // Graph-like: only Z spiders, no plain edges between spiders.
    for (const auto v : d.vertices()) {
      if (d.isBoundary(v)) {
        continue;
      }
      EXPECT_EQ(d.type(v), VertexType::Z);
      for (const auto& [w, mult] : d.neighbors(v)) {
        EXPECT_EQ(mult.total() > 0 && w == v, false) << "self loop remains";
        if (!d.isBoundary(w)) {
          EXPECT_EQ(mult.simple, 0) << "plain spider-spider edge remains";
          EXPECT_LE(mult.hadamard, 1) << "parallel Hadamard edges remain";
        }
      }
    }
  }
}

TEST(ZXSimplifyTest, IdSimpIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.idSimp(); }, "idSimp");
  }
}

TEST(ZXSimplifyTest, LcompIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.lcompSimp(); }, "lcompSimp");
  }
}

TEST(ZXSimplifyTest, PivotIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotSimp(); }, "pivotSimp");
  }
}

TEST(ZXSimplifyTest, PivotGadgetIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotGadgetSimp(); },
                    "pivotGadgetSimp");
  }
}

TEST(ZXSimplifyTest, PivotBoundaryIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotBoundarySimp(); },
                    "pivotBoundarySimp");
  }
}

TEST(ZXSimplifyTest, FullReduceIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    const auto before = toMatrix(d);
    EXPECT_TRUE(fullReduce(d));
    EXPECT_TRUE(proportional(toMatrix(d), before)) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, FullReduceShrinksCliffordDiagrams) {
  const auto c = circuits::randomClifford(4, 10, 3);
  auto d = circuitToZX(c);
  const auto before = d.spiderCount();
  fullReduce(d);
  // Graph-theoretic simplification reduces any Clifford circuit to a
  // bounded-size normal form (pseudo-normal form near the boundary).
  EXPECT_LT(d.spiderCount(), std::min<std::size_t>(before, 16));
}

TEST(ZXSimplifyTest, SwapEqualsThreeCnots) {
  // The paper's Example 6: SWAP = 3 alternating CNOTs.
  QuantumCircuit threeCx(2);
  threeCx.cx(0, 1);
  threeCx.cx(1, 0);
  threeCx.cx(0, 1);
  QuantumCircuit swapC(2);
  swapC.swap(0, 1);
  auto composed = circuitToZX(threeCx).compose(circuitToZX(swapC).adjoint());
  fullReduce(composed);
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, CliffordEquivalenceReducesToIdentityWires) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomClifford(4, 8, seed);
    auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
    ASSERT_TRUE(fullReduce(composed)) << "seed " << seed;
    const auto perm = extractWirePermutation(composed);
    ASSERT_TRUE(perm.has_value())
        << "seed " << seed << ": " << composed.spiderCount()
        << " spiders remain";
    EXPECT_TRUE(perm->isIdentity()) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, CliffordTEquivalenceReducesToIdentityWires) {
  // Sec. 6.2: phases cancel when composing a circuit with its inverse, so
  // the rewriting succeeds even beyond Clifford.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomCliffordT(4, 6, 0.3, seed);
    auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
    ASSERT_TRUE(fullReduce(composed)) << "seed " << seed;
    const auto perm = extractWirePermutation(composed);
    ASSERT_TRUE(perm.has_value())
        << "seed " << seed << ": " << composed.spiderCount()
        << " spiders remain";
    EXPECT_TRUE(perm->isIdentity()) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, PaperExample7CompiledGhz) {
  // G = GHZ(3) (Fig. 1a); G' = compiled version (Fig. 2) with the SWAP
  // decomposed into CNOTs and the output permutation exchanging q1 and q2.
  const auto g = circuits::ghz(3);
  QuantumCircuit gPrime(3);
  gPrime.h(0);
  gPrime.cx(0, 1);
  gPrime.cx(1, 2); // decomposed SWAP(1,2)
  gPrime.cx(2, 1);
  gPrime.cx(1, 2);
  gPrime.cx(0, 1);
  gPrime.outputPermutation() = Permutation({0, 2, 1});
  auto composed = circuitToZX(g).compose(circuitToZX(gPrime).adjoint());
  ASSERT_TRUE(fullReduce(composed));
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, NonEquivalentCircuitsDoNotReduceToIdentity) {
  auto damaged = circuits::ghz(3);
  damaged.ops().pop_back();
  auto composed =
      circuitToZX(circuits::ghz(3)).compose(circuitToZX(damaged).adjoint());
  fullReduce(composed);
  const auto perm = extractWirePermutation(composed);
  EXPECT_TRUE(!perm.has_value() || !perm->isIdentity());
}

TEST(ZXSimplifyTest, SpiderCountIsNonIncreasing) {
  // Sec. 5.1: the number of spiders never grows during the procedure.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    Simplifier s(d);
    s.toGraphLike();
    const auto before = d.spiderCount();
    s.fullReduce();
    EXPECT_LE(d.spiderCount(), before) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, StopCallbackAborts) {
  const auto c = circuits::randomCliffordT(4, 10, 0.2, 1);
  auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
  EXPECT_FALSE(fullReduce(composed, [] { return true; }));
}

TEST(ZXSimplifyTest, StatsMatchScanEngineBaselines) {
  // The worklist scheduler must replay the rewrite order of the original
  // scan-to-fixpoint engine exactly, so the per-rule counts on fixed seeds
  // are part of the contract. These baselines were recorded from the
  // scan-based engine before the worklist rewrite.
  struct Expected {
    std::size_t spider, id, lcomp, pivot, gadgetPivot, boundaryPivot, gadget;
    std::size_t spiders;
  };
  const auto run = [](ZXDiagram d, const Expected& e, const char* label) {
    Simplifier s(d);
    ASSERT_TRUE(s.fullReduce()) << label;
    const auto& st = s.stats();
    EXPECT_EQ(st.spiderFusions, e.spider) << label;
    EXPECT_EQ(st.idRemovals, e.id) << label;
    EXPECT_EQ(st.localComplementations, e.lcomp) << label;
    EXPECT_EQ(st.pivots, e.pivot) << label;
    EXPECT_EQ(st.gadgetPivots, e.gadgetPivot) << label;
    EXPECT_EQ(st.boundaryPivots, e.boundaryPivot) << label;
    EXPECT_EQ(st.gadgetFusions, e.gadget) << label;
    EXPECT_EQ(d.spiderCount(), e.spiders) << label;
  };
  run(circuitToZX(circuits::randomClifford(4, 10, 3)),
      {24, 2, 2, 3, 0, 1, 0, 8}, "clifford(4,10,3)");
  run(circuitToZX(circuits::randomClifford(10, 100, 1)),
      {629, 19, 174, 87, 0, 0, 0, 20}, "clifford(10,100,1)");
  run(circuitToZX(circuits::randomCliffordT(8, 80, 0.2, 1)),
      {424, 7, 77, 36, 12, 4, 0, 73}, "cliffordT(8,80,0.2,1)");
  const Expected inverses[] = {{31, 9, 0, 0, 0, 0, 0, 0},
                               {42, 10, 0, 0, 0, 0, 0, 0},
                               {36, 10, 0, 0, 0, 0, 0, 0},
                               {42, 12, 0, 0, 0, 0, 0, 0}};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomCliffordT(4, 6, 0.3, seed);
    run(circuitToZX(c).compose(circuitToZX(c).adjoint()), inverses[seed],
        "cliffordT-inv");
  }
}

TEST(ZXSimplifyTest, RuleStatsAreConsistent) {
  const auto c = circuits::randomCliffordT(6, 40, 0.2, 2);
  auto d = circuitToZX(c).compose(circuitToZX(c).adjoint());
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  const auto& st = s.stats();
  std::size_t perRuleRewrites = 0;
  for (const auto& r : st.rules) {
    EXPECT_LE(r.matches, r.candidates);
    EXPECT_GE(r.seconds, 0.0);
    perRuleRewrites += r.rewrites;
  }
  // Per-rule counters attribute rewrites to the pass they ran in; the
  // legacy family counters count events by type. Fusions also fire inside
  // toGraphLike and as by-products of other passes, so the per-pass sum is
  // a (positive) lower bound on the event total.
  EXPECT_GT(perRuleRewrites, 0U);
  EXPECT_LE(perRuleRewrites, st.total());
  EXPECT_LE(st.rules[static_cast<std::size_t>(SimplifyRule::Spider)].rewrites,
            st.spiderFusions);
  EXPECT_EQ(st.rules[static_cast<std::size_t>(SimplifyRule::Pivot)].rewrites,
            st.pivots);
  EXPECT_GT(st.totalSeconds(), 0.0);
  const auto digest = st.digest();
  EXPECT_NE(digest.find("spider"), std::string::npos) << digest;
}

TEST(ZXSimplifyTest, GadgetRulesCanBeDisabled) {
  // With the gadget families off, fullReduce stops at the Clifford fixed
  // point: still sound, and on pure Clifford input exactly as strong.
  const auto c = circuits::randomClifford(4, 12, 5);
  auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
  SimplifierOptions options;
  options.gadgetRules = false;
  Simplifier s(composed, {}, options);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_EQ(s.stats().gadgetPivots, 0U);
  EXPECT_EQ(s.stats().gadgetFusions, 0U);
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, GadgetFusionFiresOnPhasePolynomials) {
  // Two CZ-conjugated T gates on the same qubit pair create equal-support
  // gadgets that must fuse.
  QuantumCircuit c(2);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_TRUE(proportional(toMatrix(d), before));
}

TEST(SimplifierBudgetTest, VertexBudgetThrowsResourceLimitError) {
  auto d = circuitToZX(circuits::qft(4));
  ASSERT_GT(d.vertexCount(), 4U);
  SimplifierOptions options;
  options.maxVertices = 4;
  Simplifier s(d, {}, options);
  try {
    (void)s.fullReduce();
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_EQ(e.resource(), "ZX vertices");
    EXPECT_EQ(e.limit(), 4U);
    EXPECT_GE(e.observed(), d.vertexCount());
  }
}

TEST(SimplifierBudgetTest, GenerousBudgetDoesNotInterfere) {
  auto c = circuits::ghz(3);
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  SimplifierOptions options;
  options.maxVertices = 1U << 20U;
  Simplifier s(d, {}, options);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_TRUE(proportional(toMatrix(d), before));
}

} // namespace
} // namespace veriqc::zx
