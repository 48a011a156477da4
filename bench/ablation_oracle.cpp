/// \file ablation_oracle.cpp
/// \brief Ablation of the alternating checker's application oracle
///        (Sec. 4.1: "the strategy when to choose gates from which circuit
///        is dictated by an oracle"): naive vs. proportional vs. lookahead,
///        measured on compiled-circuit verification instances. The `race`
///        column is the manager's parallel alternating-only run, which races
///        the proportional and lookahead oracles on two cores and keeps the
///        first verdict; `won` names the oracle that delivered it.
#include "table_common.hpp"

#include "check/dd_checkers.hpp"
#include "check/manager.hpp"
#include "circuits/benchmarks.hpp"
#include "compile/architecture.hpp"
#include "compile/mapper.hpp"

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
  std::printf("%-20s %7s | %10s %10s | %10s %10s | %10s %10s | %10s %5s | "
              "%10s %10s\n",
              "benchmark", "|G'|", "naive[s]", "nodes", "prop[s]", "nodes",
              "look[s]", "nodes", "race[s]", "won", "flow[s]", "nodes");
  for (const auto& original : originals) {
    compile::ExpansionCounts counts;
    const auto compiled =
        compile::compileForArchitecture(original, arch, {}, &counts);
    std::printf("%-20s %7zu |", original.name().c_str(),
                compiled.gateCount());
    for (const auto oracle :
         {check::OracleStrategy::Naive, check::OracleStrategy::Proportional,
          check::OracleStrategy::Lookahead}) {
      check::Configuration config;
      config.oracle = oracle;
      const auto deadline =
          std::chrono::steady_clock::now() + bench::benchTimeout();
      const auto result =
          check::ddAlternatingCheck(original, compiled, config, [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
          });
      std::printf(" %9.3f%s %10zu |", result.runtimeSeconds,
                  check::provedEquivalent(result.criterion) ? " " : "!",
                  result.peakNodes);
      std::fflush(stdout);
    }
    // Both oracles raced through the manager (no simulation slot).
    check::Configuration raceConfig;
    raceConfig.runSimulation = false;
    raceConfig.timeout = bench::benchTimeout();
    const auto race = check::checkEquivalence(original, compiled, raceConfig);
    const char* won = race.method == "dd-alternating(lookahead)"      ? "look"
                      : race.method == "dd-alternating(proportional)" ? "prop"
                                                                      : "-";
    std::printf(" %9.3f%s %5s |", race.runtimeSeconds,
                check::provedEquivalent(race.criterion) ? " " : "!", won);
    std::fflush(stdout);
    // The compilation-flow scheme (uses the compiler's expansion record).
    const auto deadline =
        std::chrono::steady_clock::now() + bench::benchTimeout();
    const auto flow = check::ddCompilationFlowCheck(
        original, compiled, counts, {}, [deadline] {
          return std::chrono::steady_clock::now() >= deadline;
        });
    std::printf(" %9.3f%s %10zu |\n", flow.runtimeSeconds,
                check::provedEquivalent(flow.criterion) ? " " : "!",
                flow.peakNodes);
    std::fflush(stdout);
  }
  std::printf("('!' marks runs without an equivalence verdict, e.g. "
              "timeouts)\n");
  return 0;
}
