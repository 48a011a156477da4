/// \file bench.hpp
/// \brief Shared pieces of the perfbench binary: options, the process clock,
///        NDJSON row output and the Table 1 circuit pairs.
///
/// The binary prints raw facts, one JSON object per line: a provenance
/// stamp, set-up times, one row per check (tables) or job (veriqcd stream),
/// probes and resource figures. run.py turns them into the benchmark's
/// metrics and checks every verdict against expected.txt.
#pragma once

#include "ir/circuit.hpp"
#include "obs/json.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// A few small cells and a handful of jobs (the benchmark's own tests).
  bool quick = false;
  /// Scratch directory for QASM job files.
  std::string dataDir = ".";
  /// Where the traced run writes its spans at exit.
  std::string traceOut;
};

/// One wall-clock limit for every check of every workload. The slowest
/// decided cells take 3-5 s (random_walk_7 under ZX, graph_state_62 under
/// DD), so 8 s keeps them decided with a 1.6x margin while plus63mod4096
/// under ZX always runs into it. Stamped in the provenance row.
inline constexpr double kLimitSeconds = 8.0;

/// veriqcd_stream arrival rate, jobs per second, fixed. The 84 jobs arrive
/// over about 25 s and their run spans add up to about 17 s, so the one
/// job worker is busy about two thirds of the time. Stamped in the
/// provenance row.
inline constexpr double kRate = 3.3;

/// The per-check limit as a checker timeout.
[[nodiscard]] inline std::chrono::milliseconds checkLimit() {
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(kLimitSeconds * 1000.0));
}

/// Seconds since process start on the steady clock; every span and
/// timestamp the binary reports uses this origin.
[[nodiscard]] double now();

/// The steady-clock instant `seconds` after process start (inverse of now).
[[nodiscard]] std::chrono::steady_clock::time_point timeAt(double seconds);

/// Print one NDJSON row (thread-safe; flushed).
void emit(const veriqc::obs::Json& row);

/// Process peak resident set in MB.
[[nodiscard]] double peakRssMB();

/// The traced run re-runs untraced the checks that took less than this many
/// seconds traced, for trace.overhead_ratio.
inline constexpr double kLightSeconds = 0.5;

/// Named set-up layer times in seconds (circuits.build_s, compile.map_s, ...).
using LayerTimes = std::map<std::string, double>;

/// Set-up repeats: as many as fit in kSetupBudgetSeconds at the first
/// repetition's pace, at least kSetupRepetitions, at most
/// kSetupMaxRepetitions; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;
inline constexpr int kSetupMaxRepetitions = 9;
inline constexpr double kSetupBudgetSeconds = 5.0;

/// The set-up repetitions of one run, emitted as its "setup" row.
///
/// The first repetition runs before the measured work, the others spread
/// over it: repetitions back to back share one moment's machine load. On a
/// shared 4-core box, the median of table1a's 40 ms set-up read 0.046-0.060 s
/// from run to run when its repetitions ran back to back, 0.048-0.052 s when
/// they were spread over the pass.
class SetupLog {
public:
  void add(double seconds, const LayerTimes& times);
  /// How many repetitions the run makes in all (after the first is added).
  [[nodiscard]] int wanted() const;
  [[nodiscard]] int done() const { return static_cast<int>(seconds_.size()); }
  void emitRow() const;

private:
  std::vector<double> seconds_;
  std::vector<LayerTimes> layers_;
};

/// One circuit pair of Table 1: G, G' (possibly with an injected error)
/// and where it comes from.
struct Pair {
  std::string table;    ///< "table1a" or "table1b"
  std::string instance; ///< e.g. "grover_6"
  std::string config;   ///< "equivalent", "gate_missing" or "flipped_cnot"
  veriqc::QuantumCircuit g;
  veriqc::QuantumCircuit gPrime;
  /// "<table>/<instance>/<config>": the key of expected.txt.
  [[nodiscard]] std::string key() const {
    return table + "/" + instance + "/" + config;
  }
};

/// Build every pair of one table: generate the originals, compile them
/// (table1a: 65-qubit heavy-hex) or decompose and optimize them (table1b),
/// then inject the configured errors at the fixed sites of the
/// bench/table1_*.cpp harnesses. Adds each layer's time to `times` and
/// records set-up spans under `parentSpan`.
[[nodiscard]] std::vector<Pair> buildPairs(const std::string& table,
                                           bool quick, LayerTimes& times,
                                           Tracer& tracer,
                                           std::size_t parentSpan);

/// True for the counter names the benchmark reads: the dd., sim. and zx.
/// layers.
[[nodiscard]] bool isLayerCounter(const std::string& name);

/// Re-time building every gate DD of G and G' in a fresh package (a probe:
/// the same public calls the checkers make, outside any measured check).
[[nodiscard]] double probeGateBuild(const veriqc::QuantumCircuit& g,
                                    const veriqc::QuantumCircuit& gPrime);

int runTables(const Options& options);
int runStream(const Options& options);

} // namespace perfbench
