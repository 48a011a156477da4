#include "circuits/benchmarks.hpp"
#include "dd/export.hpp"
#include "sim/dd_simulator.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

namespace veriqc {
namespace {

TEST(DDExportTest, DotContainsAllNodes) {
  dd::Package p(3);
  auto e = sim::buildUnitaryDD(p, circuits::ghz(3));
  const auto dot = dd::toDot(p, e);
  EXPECT_NE(dot.find("digraph dd"), std::string::npos);
  EXPECT_NE(dot.find("terminal"), std::string::npos);
  // 5 decision nodes (Fig. 3a).
  std::size_t nodeCount = 0;
  for (std::size_t pos = dot.find("label=\"q"); pos != std::string::npos;
       pos = dot.find("label=\"q", pos + 1)) {
    ++nodeCount;
  }
  EXPECT_EQ(nodeCount, 5U);
  p.decRef(e);
}

TEST(DDExportTest, VectorDot) {
  dd::Package p(2);
  auto state = sim::simulate(p, circuits::ghz(2), p.makeZeroState());
  const auto dot = dd::toDot(p, state);
  EXPECT_NE(dot.find("digraph dd"), std::string::npos);
  p.decRef(state);
}

TEST(DDExportTest, ZeroEdgeRendersEmptyGraph) {
  dd::Package p(2);
  const auto dot = dd::toDot(p, p.zeroMatrix());
  EXPECT_NE(dot.find("digraph dd"), std::string::npos);
}

TEST(DDExportTest, WriteDotFile) {
  dd::Package p(2);
  auto e = sim::buildUnitaryDD(p, circuits::ghz(2));
  // Per-process name: ctest runs test cases as concurrent processes.
  const auto path = ::testing::TempDir() + "veriqc_dd_" +
                    std::to_string(::getpid()) + ".dot";
  dd::writeDot(p, e, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  p.decRef(e);
}

TEST(ZXExportTest, DotShowsSpidersAndHadamardEdges) {
  const auto d = zx::circuitToZX(circuits::ghz(3));
  const auto dot = zx::toDot(d);
  EXPECT_NE(dot.find("graph zx"), std::string::npos);
  EXPECT_NE(dot.find("#99dd99"), std::string::npos); // Z spider
  EXPECT_NE(dot.find("#dd9999"), std::string::npos); // X spider
  // The initial H on qubit 0 is a Hadamard edge.
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(ZXExportTest, PhaseLabelsAppear) {
  QuantumCircuit c(1);
  c.t(0);
  const auto dot = zx::toDot(zx::circuitToZX(c));
  EXPECT_NE(dot.find("pi/4"), std::string::npos);
}

} // namespace
} // namespace veriqc
