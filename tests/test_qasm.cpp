#include "circuits/benchmarks.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "sim/dense.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

namespace veriqc {
namespace {

TEST(QasmParserTest, MinimalProgram) {
  const auto c = qasm::parse(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[2];
    creg c[2];
    h q[0];
    cx q[0], q[1];
  )");
  EXPECT_EQ(c.numQubits(), 2U);
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].type, OpType::H);
  EXPECT_EQ(c.ops()[1].type, OpType::X);
  EXPECT_EQ(c.ops()[1].controls, std::vector<Qubit>{0});
}

TEST(QasmParserTest, ExpressionsInParameters) {
  const auto c = qasm::parse(R"(
    qreg q[1];
    rz(pi/4) q[0];
    rz(-pi) q[0];
    rz(2*pi/8 + 0.5) q[0];
    rz(cos(0)) q[0];
    rz(2^3) q[0];
  )");
  ASSERT_EQ(c.size(), 5U);
  EXPECT_NEAR(c.ops()[0].params[0], PI / 4.0, 1e-12);
  EXPECT_NEAR(c.ops()[1].params[0], -PI, 1e-12);
  EXPECT_NEAR(c.ops()[2].params[0], PI / 4.0 + 0.5, 1e-12);
  EXPECT_NEAR(c.ops()[3].params[0], 1.0, 1e-12);
  EXPECT_NEAR(c.ops()[4].params[0], 8.0, 1e-12);
}

TEST(QasmParserTest, RegisterBroadcast) {
  const auto c = qasm::parse(R"(
    qreg q[3];
    h q;
  )");
  EXPECT_EQ(c.size(), 3U);
  for (const auto& op : c.ops()) {
    EXPECT_EQ(op.type, OpType::H);
  }
}

TEST(QasmParserTest, TwoQuantumRegistersAreFlattened) {
  const auto c = qasm::parse(R"(
    qreg a[2];
    qreg b[2];
    x a[1];
    x b[0];
  )");
  EXPECT_EQ(c.numQubits(), 4U);
  EXPECT_EQ(c.ops()[0].targets, std::vector<Qubit>{1});
  EXPECT_EQ(c.ops()[1].targets, std::vector<Qubit>{2});
}

TEST(QasmParserTest, UserDefinedGateExpansion) {
  const auto c = qasm::parse(R"(
    qreg q[2];
    gate bell a, b { h a; cx a, b; }
    bell q[0], q[1];
  )");
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].type, OpType::H);
  EXPECT_EQ(c.ops()[1].controls, std::vector<Qubit>{0});
}

TEST(QasmParserTest, ParameterizedUserGate) {
  const auto c = qasm::parse(R"(
    qreg q[1];
    gate twist(theta) a { rz(theta/2) a; rz(theta/2) a; }
    twist(pi) q[0];
  )");
  ASSERT_EQ(c.size(), 2U);
  EXPECT_NEAR(c.ops()[0].params[0], PI / 2.0, 1e-12);
}

TEST(QasmParserTest, NestedUserGates) {
  const auto c = qasm::parse(R"(
    qreg q[2];
    gate inner a { x a; }
    gate outer a, b { inner a; cx a, b; inner b; }
    outer q[0], q[1];
  )");
  EXPECT_EQ(c.size(), 3U);
}

TEST(QasmParserTest, MultiControlledGates) {
  const auto c = qasm::parse(R"(
    qreg q[5];
    ccx q[0], q[1], q[2];
    c3x q[0], q[1], q[2], q[3];
    c4x q[0], q[1], q[2], q[3], q[4];
  )");
  EXPECT_EQ(c.ops()[0].controls.size(), 2U);
  EXPECT_EQ(c.ops()[1].controls.size(), 3U);
  EXPECT_EQ(c.ops()[2].controls.size(), 4U);
}

TEST(QasmParserTest, MeasureAndBarrierAreMeta) {
  const auto c = qasm::parse(R"(
    qreg q[2];
    creg c[2];
    h q[0];
    barrier q;
    measure q -> c;
  )");
  EXPECT_EQ(c.gateCount(), 1U);
  EXPECT_EQ(c.size(), 4U); // h + barrier + 2 measures
}

TEST(QasmParserTest, ErrorsCarryPositions) {
  try {
    (void)qasm::parse("qreg q[2];\nfoo q[0];\n");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 2U);
  }
}

TEST(QasmParserTest, RejectsUnsupportedStatements) {
  EXPECT_THROW((void)qasm::parse("qreg q[1]; creg c[1]; reset q[0];"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parse("qreg q[1]; creg c[1]; if (c==0) x q[0];"),
               qasm::ParseError);
}

TEST(QasmParserTest, RejectsOutOfRangeIndex) {
  EXPECT_THROW((void)qasm::parse("qreg q[2]; x q[5];"), qasm::ParseError);
}

TEST(QasmParserTest, RejectsArityMismatch) {
  EXPECT_THROW((void)qasm::parse("qreg q[2]; cx q[0];"), qasm::ParseError);
  EXPECT_THROW((void)qasm::parse("qreg q[1]; rz q[0];"), qasm::ParseError);
}

TEST(QasmParserTest, RejectsAliasedOperandsAtParseTime) {
  // Aliased operand lists must fail during parsing with the position of the
  // offending application, not later from IR validation during emission.
  try {
    (void)qasm::parse("qreg q[2];\ncx q[0], q[0];\n");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 2U);
    EXPECT_NE(std::string(e.what()).find("aliased"), std::string::npos);
  }
  // Broadcasting a register against itself aliases every wire pair.
  EXPECT_THROW((void)qasm::parse("qreg q[2]; cx q, q;"), qasm::ParseError);
  // Three-operand gates alias through any pair, not just adjacent ones.
  EXPECT_THROW((void)qasm::parse("qreg q[3]; ccx q[0], q[1], q[0];"),
               qasm::ParseError);
}

TEST(QasmParserTest, RejectsAliasingInsideUserGateBodies) {
  // The alias only appears once formals are bound to actual wires.
  EXPECT_THROW(
      (void)qasm::parse("qreg q[2]; gate g a, b { cx a, b; } g q[1], q[1];"),
      qasm::ParseError);
  // A body that aliases its own formals is rejected for every application.
  EXPECT_THROW(
      (void)qasm::parse("qreg q[1]; gate g a { cx a, a; } g q[0];"),
      qasm::ParseError);
}

// --- fuzz-style malformed inputs ---------------------------------------------

// Every malformed input must fail with a positioned ParseError — never a
// crash, a hang, or a stray exception type escaping the parser.

TEST(QasmFuzzTest, TruncatedMidToken) {
  const std::vector<std::string> cases = {
      "OPENQASM 2.",
      "qreg q[",
      "qreg q[2",
      "qreg q[2];\nrx(0.",
      "qreg q[2];\ncx q[0",
      "qreg q[2];\ninclude \"qelib1",
  };
  for (const auto& text : cases) {
    EXPECT_THROW((void)qasm::parse(text), qasm::ParseError) << text;
  }
}

TEST(QasmFuzzTest, EveryPrefixParsesOrThrowsParseError) {
  // Truncation sweep over a program exercising every statement kind: each
  // prefix must either parse or raise ParseError; anything else escaping
  // (or an infinite loop) fails the test.
  const std::string program =
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[3];\n"
      "creg c[3];\n"
      "gate foo(t) a, b { rz(t/2) a; cx a, b; }\n"
      "foo(pi/2) q[0], q[1];\n"
      "ccx q[0], q[1], q[2];\n"
      "barrier q;\n"
      "measure q -> c;\n";
  for (std::size_t len = 0; len <= program.size(); ++len) {
    try {
      (void)qasm::parse(program.substr(0, len));
    } catch (const qasm::ParseError&) {
      // expected for most truncation points
    }
  }
}

TEST(QasmFuzzTest, AbsurdRegisterSizesAreRejected) {
  // Over the total-qubit cap but within long long range.
  EXPECT_THROW((void)qasm::parse("qreg q[99999999];"), qasm::ParseError);
  // Out of long long range entirely (stoll would throw std::out_of_range).
  EXPECT_THROW((void)qasm::parse("qreg q[99999999999999999999999];"),
               qasm::ParseError);
  // Two registers that only jointly exceed the cap.
  EXPECT_THROW((void)qasm::parse("qreg a[1000000];\nqreg b[1000000];"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parse("qreg q[-1];"), qasm::ParseError);
}

TEST(QasmFuzzTest, UnterminatedGateBody) {
  EXPECT_THROW((void)qasm::parse("qreg q[2];\ngate foo a { x a;"),
               qasm::ParseError);
  EXPECT_THROW((void)qasm::parse("qreg q[2];\ngate foo a {"),
               qasm::ParseError);
}

TEST(QasmFuzzTest, MalformedParameters) {
  // Unbound identifier in an angle.
  EXPECT_THROW((void)qasm::parse("qreg q[1];\nrx(foo) q[0];"),
               qasm::ParseError);
  // Division by zero yields a non-finite angle.
  EXPECT_THROW((void)qasm::parse("qreg q[1];\nrx(1/0) q[0];"),
               qasm::ParseError);
  // Out-of-range floating-point literal.
  EXPECT_THROW((void)qasm::parse("qreg q[1];\nrx(1e999999) q[0];"),
               qasm::ParseError);
}

TEST(QasmFuzzTest, MalformedParameterErrorsCarryPositions) {
  try {
    (void)qasm::parse("qreg q[1];\nrx(foo) q[0];");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 2U);
    EXPECT_GT(e.column(), 0U);
  }
}

TEST(QasmFuzzTest, DuplicateOperandsAreParseErrors) {
  // The emitted operation is invalid (duplicate qubit); the parser must wrap
  // the CircuitError with source position rather than leak it.
  try {
    (void)qasm::parse("qreg q[2];\ncx q[0], q[0];");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 2U);
  }
}

TEST(QasmFuzzTest, ParseErrorIsPartOfTheTaxonomy) {
  // ParseError sits under VeriqcError, so callers can catch the whole
  // family at once.
  try {
    (void)qasm::parse("qreg q[");
    FAIL() << "expected ParseError";
  } catch (const VeriqcError&) {
  }
}

TEST(QasmWriterTest, RoundTripPreservesSemantics) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto original = circuits::randomCircuit(4, 30, seed);
    const auto text = qasm::write(original);
    const auto reparsed = qasm::parse(text);
    ASSERT_EQ(reparsed.numQubits(), original.numQubits());
    const auto u = sim::circuitUnitary(original);
    const auto v = sim::circuitUnitary(reparsed);
    EXPECT_TRUE(u.equals(v, 1e-9)) << "seed " << seed;
  }
}

TEST(QasmWriterTest, RoundTripBenchmarks) {
  const std::vector<QuantumCircuit> cases = {
      circuits::ghz(4), circuits::qft(4), circuits::grover(3, 5),
      circuits::quantumWalk(3, 2), circuits::wState(4)};
  for (const auto& original : cases) {
    const auto reparsed = qasm::parse(qasm::write(original));
    const auto u = sim::circuitUnitary(original.withExplicitPermutations());
    const auto v = sim::circuitUnitary(reparsed);
    EXPECT_TRUE(u.equals(v, 1e-9)) << original.name();
  }
}

TEST(QasmWriterTest, EmitsPermutationComments) {
  auto c = circuits::qft(3, false); // output permutation is the reversal
  const auto text = qasm::write(c);
  EXPECT_NE(text.find("// o 2 1 0"), std::string::npos);
}

TEST(QasmWriterTest, RejectsTooManyControls) {
  QuantumCircuit c(6);
  c.mcx({0, 1, 2, 3, 4}, 5);
  EXPECT_THROW((void)qasm::write(c), CircuitError);
}

TEST(QasmWriterTest, FileRoundTrip) {
  const auto original = circuits::ghz(3);
  // Per-process name: ctest runs test cases as concurrent processes.
  const std::string path = ::testing::TempDir() + "veriqc_ghz_" +
                           std::to_string(::getpid()) + ".qasm";
  qasm::writeFile(original, path);
  const auto reparsed = qasm::parseFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(reparsed.gateCount(), original.gateCount());
}

} // namespace
} // namespace veriqc
