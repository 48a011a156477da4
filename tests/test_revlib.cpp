#include "qasm/revlib.hpp"
#include "sim/dense.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

namespace veriqc {
namespace {

TEST(RevLibTest, MinimalToffoliFile) {
  const auto c = qasm::parseReal(R"(
.version 2.0
.numvars 3
.variables a b c
.begin
t3 a b c
t2 a b
t1 a
.end
)");
  EXPECT_EQ(c.numQubits(), 3U);
  ASSERT_EQ(c.size(), 3U);
  EXPECT_EQ(c.ops()[0].controls.size(), 2U);
  EXPECT_EQ(c.ops()[1].controls.size(), 1U);
  EXPECT_EQ(c.ops()[2].controls.size(), 0U);
}

TEST(RevLibTest, CommentsAndHeaderDirectivesIgnored) {
  const auto c = qasm::parseReal(R"(
# a RevLib file
.version 2.0
.numvars 2
.variables a b
.inputs a b
.outputs a b
.constants --
.garbage --
.begin
t2 a b  # cnot
.end
)");
  EXPECT_EQ(c.size(), 1U);
}

TEST(RevLibTest, NegativeControlsBecomeXConjugation) {
  const auto c = qasm::parseReal(R"(
.numvars 2
.variables a b
t2 -a b
)");
  // x a; cx a,b; x a
  ASSERT_EQ(c.size(), 3U);
  EXPECT_EQ(c.ops()[0].type, OpType::X);
  EXPECT_EQ(c.ops()[2].type, OpType::X);
  // Semantics: b flips when a == 0.
  auto state = sim::zeroState(2);
  sim::applyLogical(c, state);
  EXPECT_NEAR(std::abs(state[2]), 1.0, 1e-12); // |10>: b=1, a=0
}

TEST(RevLibTest, FredkinAndPeres) {
  const auto c = qasm::parseReal(R"(
.numvars 3
.variables a b c
f3 a b c
p3 a b c
)");
  ASSERT_EQ(c.size(), 3U);
  EXPECT_EQ(c.ops()[0].type, OpType::SWAP);
  EXPECT_EQ(c.ops()[0].controls.size(), 1U);
  // Peres = ccx; cx.
  EXPECT_EQ(c.ops()[1].controls.size(), 2U);
  EXPECT_EQ(c.ops()[2].controls.size(), 1U);
}

TEST(RevLibTest, PeresSemantics) {
  // Peres(a,b,c): c ^= a&b, then b ^= a.
  const auto c = qasm::parseReal(R"(
.numvars 3
.variables a b c
p3 a b c
)");
  auto state = sim::zeroState(3);
  state[0] = 0.0;
  state[3] = 1.0; // a=1, b=1, c=0
  sim::applyLogical(c, state);
  // c ^= 1; b ^= 1 -> a=1, b=0, c=1 -> index 5
  EXPECT_NEAR(std::abs(state[5]), 1.0, 1e-12);
}

TEST(RevLibTest, ControlledV) {
  const auto c = qasm::parseReal(R"(
.numvars 2
.variables a b
v2 a b
v+2 a b
)");
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].type, OpType::SX);
  EXPECT_EQ(c.ops()[1].type, OpType::SXdg);
  // V followed by V-dagger is the identity.
  const auto u = sim::circuitUnitary(c);
  EXPECT_TRUE(u.equalsUpToGlobalPhase(sim::Matrix::identity(4)));
}

TEST(RevLibTest, ImplicitVariableNames) {
  const auto c = qasm::parseReal(R"(
.numvars 3
t2 x0 x2
)");
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.ops()[0].targets[0], 2U);
}

TEST(RevLibTest, Errors) {
  EXPECT_THROW((void)qasm::parseReal(".numvars 2\nq2 a b\n"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal(".numvars 2\n.variables a b\nt2 a z\n"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal("t1 a\n"), qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal(".numvars 2\n.variables a b\nt2 a -b\n"),
               qasm::ParseError);
}

TEST(RevLibFuzzTest, MalformedHeadersAreParseErrors) {
  // Out-of-range numvars (stoul would throw) and absurd-but-parseable sizes.
  EXPECT_THROW((void)qasm::parseReal(".numvars 99999999999999999999\nt1 x0\n"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal(".numvars 99999999\nt1 x0\n"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal(".numvars abc\nt1 x0\n"),
               qasm::ParseError);
  // More declared variables than numvars.
  EXPECT_THROW((void)qasm::parseReal(".numvars 2\n.variables a b c\nt2 a b\n"),
               qasm::ParseError);
}

TEST(RevLibTest, RejectsAliasedOperandsAtParseTime) {
  // Aliased operand lists fail during parsing with a message naming the
  // repeated variable, before any operation is emitted.
  try {
    (void)qasm::parseReal(".numvars 2\n.variables a b\nt2 a a\n");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 3U);
    EXPECT_NE(std::string(e.what()).find("aliased"), std::string::npos);
  }
  // Non-adjacent duplicates (control repeated as target) are also caught.
  EXPECT_THROW(
      (void)qasm::parseReal(".numvars 3\n.variables a b c\nt3 a b a\n"),
      qasm::ParseError);
  // A negated control aliasing the target is rejected, not X-conjugated.
  EXPECT_THROW(
      (void)qasm::parseReal(".numvars 2\n.variables a b\nt2 -a a\n"),
      qasm::ParseError);
}

TEST(RevLibFuzzTest, InvalidGateLinesAreParseErrors) {
  // Duplicate operands make the emitted operation invalid; the reader must
  // reject them at parse time with the line number instead of leaking a
  // CircuitError.
  try {
    (void)qasm::parseReal(".numvars 2\n.variables a b\nt2 a a\n");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 3U);
  }
  // Operand lists too short for the gate kind.
  EXPECT_THROW((void)qasm::parseReal(".numvars 3\n.variables a b c\nf3 a\n"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parseReal(".numvars 3\n.variables a b c\np3 a b\n"),
               qasm::ParseError);
}

TEST(RevLibFuzzTest, EveryPrefixParsesOrThrowsParseError) {
  const std::string program = ".version 2.0\n"
                              ".numvars 3\n"
                              ".variables a b c\n"
                              ".begin\n"
                              "t3 a b c\n"
                              "f3 a b c\n"
                              "v2 a b\n"
                              ".end\n";
  for (std::size_t len = 0; len <= program.size(); ++len) {
    try {
      (void)qasm::parseReal(program.substr(0, len));
    } catch (const qasm::ParseError&) {
      // expected for most truncation points
    }
  }
}

TEST(RevLibTest, FileRoundTrip) {
  // Per-process name: ctest runs test cases as concurrent processes.
  const std::string path = ::testing::TempDir() + "veriqc_test_" +
                           std::to_string(::getpid()) + ".real";
  {
    std::ofstream out(path);
    out << ".numvars 2\n.variables a b\nt2 a b\n";
  }
  const auto c = qasm::parseRealFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(c.size(), 1U);
  EXPECT_THROW((void)qasm::parseRealFile("/nonexistent.real"),
               std::runtime_error);
}

} // namespace
} // namespace veriqc
