/// \file ablation_oracle.cpp
/// \brief Ablation of the alternating checker's application oracle
///        (Sec. 4.1: "the strategy when to choose gates from which circuit
///        is dictated by an oracle"): naive vs. proportional vs. lookahead,
///        measured on compiled-circuit verification instances. Per oracle it
///        prints the runtime, `nodes` (the package's slab occupancy before
///        GC, which clusters at the 65,536-node GC threshold) and `peak`
///        (the largest diagram the check built, max(sizeTrace), from a
///        second, traced run so the per-gate node count stays out of the
///        timing).
#include "table_common.hpp"

#include "check/dd_checkers.hpp"
#include "circuits/benchmarks.hpp"
#include "compile/architecture.hpp"
#include "compile/mapper.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

int main() {
  using namespace veriqc;
  const auto arch = compile::Architecture::ibmManhattanLike();

  std::vector<QuantumCircuit> originals;
  originals.push_back(circuits::ghz(16));
  originals.push_back(circuits::qft(8));
  originals.push_back(circuits::grover(4, 11));
  originals.push_back(circuits::quantumWalk(3, 3));
  // Table 1(a) rows where the oracle choice decides the runtime.
  originals.push_back(circuits::grover(6, 37));
  originals.push_back(circuits::quantumWalk(6, 3));
  originals.push_back(circuits::qft(16));
  originals.push_back(circuits::qpeExact(12, 2741));
  originals.push_back(circuits::randomGraphState(62, 20, 2));

  std::printf("\nAblation: alternating-checker oracle strategies "
              "(equivalent compiled instances)\n");
  std::printf("%-20s %7s | %9s %7s %6s | %9s %7s %6s | %9s %7s %6s\n",
              "benchmark", "|G'|", "naive[s]", "nodes", "peak", "prop[s]",
              "nodes", "peak", "look[s]", "nodes", "peak");
  for (const auto& original : originals) {
    const auto compiled = compile::compileForArchitecture(original, arch);
    std::printf("%-20s %7zu |", original.name().c_str(),
                compiled.gateCount());
    for (const auto oracle :
         {check::OracleStrategy::Naive, check::OracleStrategy::Proportional,
          check::OracleStrategy::Lookahead}) {
      const auto run = [&](const bool recordTrace) {
        check::Configuration config;
        config.oracle = oracle;
        config.recordTrace = recordTrace;
        const auto deadline =
            std::chrono::steady_clock::now() + bench::benchTimeout();
        const check::StopToken stop = [deadline] {
          return std::chrono::steady_clock::now() >= deadline;
        };
        return check::ddAlternatingCheck(original, compiled, config, stop);
      };
      const auto result = run(false);
      const auto trace = run(true).sizeTrace;
      const std::size_t peak =
          trace.empty() ? 0 : *std::max_element(trace.begin(), trace.end());
      std::printf(" %8.3f%s %7zu %6zu |", result.runtimeSeconds,
                  check::provedEquivalent(result.criterion) ? " " : "!",
                  result.peakNodes, peak);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("('!' marks runs without an equivalence verdict, e.g. "
              "timeouts)\n");
  return 0;
}
