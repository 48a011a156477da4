/// \file tables.cpp
/// \brief The Table 1(a)/(b) pairs and the two table workloads: every pair
///        in three configurations, checked one at a time by the DD flow
///        (t_dd: alternating racing 16 simulations) and the ZX flow (t_zx:
///        fullReduce).
#include "bench.hpp"
#include "trace.hpp"

#include "check/manager.hpp"
#include "check/report.hpp"
#include "check/zx_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/error_injection.hpp"
#include "compile/architecture.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "dd/package.hpp"
#include "opt/optimizer.hpp"
#include "zx/circuit_to_zx.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

using veriqc::QuantumCircuit;
using veriqc::obs::Json;
namespace check = veriqc::check;
namespace circuits = veriqc::circuits;

constexpr std::array<const char*, 3> kConfigs = {"equivalent", "gate_missing",
                                                 "flipped_cnot"};

/// The default instances of bench/table1_compiled.cpp and
/// bench/table1_optimized.cpp, in their order.
std::vector<QuantumCircuit> originals(const std::string& table) {
  std::vector<QuantumCircuit> out;
  if (table == "table1a") {
    out.push_back(circuits::grover(4, 11));
    out.push_back(circuits::grover(5, 19));
    out.push_back(circuits::grover(6, 37));
    out.push_back(circuits::qft(8));
    out.push_back(circuits::qft(12));
    out.push_back(circuits::qft(16));
    out.push_back(circuits::quantumWalk(4, 3));
    out.push_back(circuits::quantumWalk(5, 3));
    out.push_back(circuits::quantumWalk(6, 3));
    out.push_back(circuits::qpeExact(7, 53));
    out.push_back(circuits::qpeExact(10, 619));
    out.push_back(circuits::qpeExact(12, 2741));
    out.push_back(circuits::ghz(32));
    out.push_back(circuits::ghz(65));
    out.push_back(circuits::randomGraphState(30, 10, 1));
    out.push_back(circuits::randomGraphState(62, 20, 2));
    return out;
  }
  if (table != "table1b") {
    throw std::invalid_argument("unknown table " + table);
  }
  out.push_back(circuits::urfLike(8, 60, 154));
  out.push_back(circuits::constantAdder(12, 63)); // plus63mod4096
  out.push_back(circuits::mixedReversible(8, 80, 231)); // example_8
  out.push_back(circuits::grover(4, 11));
  out.push_back(circuits::grover(5, 19));
  out.push_back(circuits::grover(6, 37));
  out.push_back(circuits::qft(8));
  out.push_back(circuits::qft(12));
  out.push_back(circuits::qft(16));
  out.push_back(circuits::quantumWalk(4, 3));
  out.push_back(circuits::quantumWalk(5, 3));
  out.push_back(circuits::quantumWalk(6, 3));
  return out;
}

/// Quick mode keeps three small instances per table (indices into
/// originals(), so their injected errors match the full run).
bool inQuickSet(const std::string& table, const std::size_t index) {
  return table == "table1a" ? index == 0 || index == 3 || index == 12
                            : index == 2 || index == 3 || index == 6;
}

std::string verdictKey(const check::EquivalenceCriterion criterion) {
  return check::criterionKey(criterion);
}

/// One engine's outcome: its layer counters and, for ZX, the rule stats.
Json engineRow(const check::Result& result) {
  auto engine = Json::object();
  engine["method"] = result.method;
  engine["verdict"] = verdictKey(result.criterion);
  engine["seconds"] = result.runtimeSeconds;
  auto counters = Json::object();
  for (const auto& [name, counter] : result.counters.entries()) {
    if (isLayerCounter(name)) {
      counters[name] = counter.value;
    }
  }
  engine["counters"] = std::move(counters);
  auto rules = Json::array();
  for (const auto& stat : result.zxRuleStats) {
    auto rule = Json::object();
    rule["rule"] = stat.rule;
    rule["candidates"] = stat.candidates;
    rule["matches"] = stat.matches;
    rule["rewrites"] = stat.rewrites;
    rule["seconds"] = stat.seconds;
    rules.push_back(std::move(rule));
  }
  engine["zx_rules"] = std::move(rules);
  return engine;
}

double probeZxConvert(const QuantumCircuit& g, const QuantumCircuit& gPrime,
                      const double snapTolerance) {
  const double start = now();
  for (const auto* circuit : {&g, &gPrime}) {
    const auto diagram = veriqc::zx::circuitToZX(
        veriqc::compile::decomposeForZX(*circuit), snapTolerance);
    static_cast<void>(diagram);
  }
  return now() - start;
}

/// Row fields every check shares.
Json baseRow(const Pair& pair, const std::string& id,
             const std::string& method) {
  auto row = Json::object();
  row["kind"] = "cell";
  row["id"] = id;
  row["table"] = pair.table;
  row["instance"] = pair.instance;
  row["config"] = pair.config;
  row["method"] = method;
  row["n"] = pair.g.numQubits();
  row["g"] = pair.g.gateCount();
  row["gp"] = pair.gPrime.gateCount();
  return row;
}

/// One t_dd cell through EquivalenceCheckingManager (the paper's t_qcec
/// configuration), with the manager's phases mapped onto trace spans.
Json runDdCell(const Pair& pair, const std::string& id, const bool traced,
               Tracer& tracer, const std::size_t root) {
  check::Configuration config;
  config.runAlternating = true;
  config.runSimulation = true;
  config.simulationRuns = 16;
  config.timeout = checkLimit();
  config.recordTrace = traced;

  const double start = now();
  // The timer's origin is taken inside its constructor, at or after
  // `start`, so phase spans placed at start + offset stay inside "check".
  veriqc::obs::PhaseTimer phases;
  check::EquivalenceCheckingManager manager(pair.g, pair.gPrime, config);
  manager.usePhaseTimer(&phases);
  const auto result = manager.run();
  const double end = now();

  auto row = baseRow(pair, id, "dd");
  row["verdict"] = verdictKey(result.criterion);
  row["seconds"] = end - start;
  row["winner"] = result.method;
  auto engines = Json::array();
  double slabPeak = 0.0;
  std::int64_t diagramPeak = -1;
  std::int64_t counterexample = -1;
  for (const auto& engine : manager.engineResults()) {
    engines.push_back(engineRow(engine));
    slabPeak = std::max(slabPeak, engine.counters.value("dd.nodes.peak"));
    for (const auto size : engine.sizeTrace) {
      diagramPeak = std::max(diagramPeak, static_cast<std::int64_t>(size));
    }
    if (engine.counterexampleStimulus >= 0) {
      counterexample = engine.counterexampleStimulus;
    }
  }
  row["slab_peak"] = slabPeak;
  row["diagram_peak"] = traced ? Json(diagramPeak) : Json();
  row["counterexample"] = counterexample;
  row["engines"] = std::move(engines);
  auto phaseRows = Json::array();
  const auto check = tracer.record(id, "check", root, start, end);
  for (const auto& span : phases.spans()) {
    auto phase = Json::object();
    phase["name"] = span.name;
    phase["seconds"] = span.durationSeconds;
    phaseRows.push_back(std::move(phase));
    tracer.record(id, span.name, check, start + span.startSeconds,
                  start + span.startSeconds + span.durationSeconds);
  }
  row["phases"] = std::move(phaseRows);
  if (traced) {
    const auto probe = tracer.open(id, "probe:dd.gate_build", root, true);
    row["probe_s"] = probeGateBuild(pair.g, pair.gPrime);
    tracer.close(probe);
  }
  return row;
}

/// One t_zx cell through check::zxCheck under the workload's limit.
Json runZxCell(const Pair& pair, const std::string& id, const bool traced,
               Tracer& tracer, const std::size_t root) {
  check::Configuration config;
  config.timeout = checkLimit();
  const double start = now();
  const auto result = check::zxCheck(pair.g, pair.gPrime, config);
  const double end = now();
  tracer.record(id, "check", root, start, end);

  auto row = baseRow(pair, id, "zx");
  row["verdict"] = verdictKey(result.criterion);
  row["seconds"] = end - start;
  row["winner"] = result.method;
  row["slab_peak"] = Json();
  row["diagram_peak"] = Json();
  row["counterexample"] = -1;
  row["engines"] = Json::array();
  row["engines"].push_back(engineRow(result));
  row["phases"] = Json::array();
  if (traced) {
    const auto probe = tracer.open(id, "probe:zx.convert", root, true);
    row["probe_s"] =
        probeZxConvert(pair.g, pair.gPrime, config.zxPhaseSnapTolerance);
    tracer.close(probe);
  }
  return row;
}

Json runCell(const Pair& pair, const std::string& method,
             const std::string& id, const bool traced, Tracer& tracer) {
  const auto root = tracer.open(id, "cell", 0);
  auto row = method == "dd" ? runDdCell(pair, id, traced, tracer, root)
                            : runZxCell(pair, id, traced, tracer, root);
  tracer.close(root);
  row["traced"] = traced;
  return row;
}

} // namespace

bool isLayerCounter(const std::string& name) {
  return name.rfind("dd.", 0) == 0 || name.rfind("sim.", 0) == 0 ||
         name.rfind("zx.", 0) == 0;
}

double probeGateBuild(const QuantumCircuit& g, const QuantumCircuit& gPrime) {
  const double start = now();
  veriqc::dd::Package package(std::max(g.numQubits(), gPrime.numQubits()));
  for (const auto* circuit : {&g, &gPrime}) {
    for (const auto& op : circuit->ops()) {
      if (!op.isNonUnitary()) {
        static_cast<void>(package.makeOperationDD(op));
      }
    }
  }
  return now() - start;
}

std::vector<Pair> buildPairs(const std::string& table, const bool quick,
                             LayerTimes& times, Tracer& tracer,
                             const std::size_t parentSpan) {
  const auto timed = [&](const char* layer, auto&& fn) {
    const auto span = tracer.open("setup", layer, parentSpan);
    const double start = now();
    auto value = fn();
    times[layer] += now() - start;
    tracer.close(span);
    return value;
  };

  auto sources = timed("circuits.build_s", [&] { return originals(table); });
  const auto arch = veriqc::compile::Architecture::ibmManhattanLike();
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (quick && !inQuickSet(table, i)) {
      continue;
    }
    QuantumCircuit g;
    QuantumCircuit gPrime;
    if (table == "table1a") {
      g = std::move(sources[i]);
      gPrime = timed("compile.map_s", [&] {
        return veriqc::compile::compileForArchitecture(g, arch);
      });
    } else {
      g = timed("compile.decompose_s", [&] {
        return veriqc::compile::decomposeToCnot(sources[i]);
      });
      g.setName(sources[i].name());
      gPrime =
          timed("opt.optimize_s", [&] { return veriqc::opt::optimize(g); });
    }
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      const std::string config = kConfigs[c];
      // The error sites of bench/table1_*.cpp: one fixed seed per row,
      // independent of --seed. Where the error lands moves a cell by up to
      // 2x (graph_state_62 under DD: 2.7 s or 5.8 s), which no run-to-run
      // comparison could tell from a regression.
      std::mt19937_64 rng((table == "table1a" ? 1000 : 2000) + i);
      auto damaged = timed("circuits.inject_s", [&] {
        if (config == "gate_missing") {
          return circuits::removeRandomGate(gPrime, rng);
        }
        if (config == "flipped_cnot") {
          return circuits::flipRandomCnot(gPrime, rng);
        }
        return std::optional<QuantumCircuit>(gPrime);
      });
      if (!damaged.has_value()) {
        throw std::runtime_error("cannot inject " + config + " into " +
                                 g.name());
      }
      pairs.push_back({table, g.name(), config, g, std::move(*damaged)});
    }
  }
  return pairs;
}

int runTables(const Options& options) {
  Tracer tracer(options.trace);
  const std::string table =
      options.workload == "table1a_compiled" ? "table1a" : "table1b";

  // Set-up is repeated (see SetupLog); run.py reports the median as
  // setup_s. The pairs of the first repetition are checked.
  SetupLog setupLog;
  const auto setUp = [&] {
    LayerTimes times;
    const auto span = tracer.open("setup", "setup", 0);
    const double start = now();
    auto built = buildPairs(table, options.quick, times, tracer, span);
    setupLog.add(now() - start, times);
    tracer.close(span);
    return built;
  };
  const auto pairs = setUp();
  const auto setups = static_cast<std::size_t>(setupLog.wanted());

  // One pass over every cell, one check at a time, in an order drawn from
  // --seed (the pairs themselves are fixed). A partial pass would have no
  // meaningful sum, so a table run measures a whole pass (about 30 s for
  // table1a, 50 s for table1b) whatever --seconds says. The other set-up
  // repetitions run between cells, evenly spread over the pass.
  struct Cell {
    const Pair* pair;
    const char* method;
  };
  std::vector<Cell> cells;
  for (const auto& pair : pairs) {
    cells.push_back({&pair, "dd"});
    cells.push_back({&pair, "zx"});
  }
  std::mt19937_64 rng(options.seed);
  std::shuffle(cells.begin(), cells.end(), rng);
  const auto cellId = [](const Cell& cell, const char* suffix) {
    return cell.pair->key() + "/" + cell.method + suffix;
  };
  std::vector<double> cellSeconds;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto done = static_cast<std::size_t>(setupLog.done());
    if (done < setups && c * setups >= done * cells.size()) {
      static_cast<void>(setUp());
    }
    auto row = runCell(*cells[c].pair, cells[c].method, cellId(cells[c], ""),
                       options.trace, tracer);
    cellSeconds.push_back(row.at("seconds").asDouble());
    emit(row);
  }
  setupLog.emitRow();

  if (options.trace) {
    // Tracing overhead: re-run untraced the light cells (under
    // kLightSeconds traced), so the ratio compares the same cells at the
    // cost of a few seconds.
    Tracer off(false);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cellSeconds[c] < kLightSeconds) {
        auto row = runCell(*cells[c].pair, cells[c].method,
                           cellId(cells[c], "#untraced"), false, off);
        row["overhead"] = true;
        emit(row);
      }
    }
  }

  auto rss = Json::object();
  rss["kind"] = "resources";
  rss["peak_rss_mb"] = peakRssMB();
  emit(rss);
  tracer.write(options.traceOut);
  return 0;
}

} // namespace perfbench
