/// \file dd_micro.cpp
/// \brief Google-benchmark microbenchmarks of the decision-diagram package.
#include "check/dd_checkers.hpp"
#include "circuits/benchmarks.hpp"
#include "dd/package.hpp"
#include "sim/dd_simulator.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

namespace {

using namespace veriqc;

/// Attach the slab node-store metrics as benchmark counters: slab growth
/// events, slot occupancy and the mean unique-table probe length are the
/// quantities the index-based store is supposed to improve.
void reportNodeStoreCounters(benchmark::State& state,
                             const dd::PackageStats& stats) {
  const auto store = stats.storeTotal();
  state.counters["store_slab_growths"] =
      static_cast<double>(store.slabGrowths);
  state.counters["store_allocated_slots"] =
      static_cast<double>(store.allocatedSlots);
  state.counters["store_occupancy"] = store.occupancy();
  state.counters["store_probe_length"] = store.meanProbeLength();
  state.counters["store_hit_rate"] = store.hitRate();
}

/// Attach the package's cache hit rates as benchmark counters.
void reportCacheCounters(benchmark::State& state, const dd::Package& package) {
  const auto stats = package.stats();
  state.counters["gate_cache_hit_rate"] = stats.gateCache.hitRate();
  const auto compute = stats.computeTotal();
  state.counters["compute_hit_rate"] = compute.hitRate();
  state.counters["compute_collisions"] =
      static_cast<double>(compute.collisions);
  reportNodeStoreCounters(state, stats);
}

void BM_MakeGateDD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package package(n);
  const auto matrix = gateMatrix(OpType::H, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        package.makeGateDD(matrix, {}, static_cast<Qubit>(n / 2)));
  }
  reportCacheCounters(state, package);
}
BENCHMARK(BM_MakeGateDD)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MakeControlledGateDD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package package(n);
  const auto matrix = gateMatrix(OpType::X, {});
  const std::vector<Qubit> controls{0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        package.makeGateDD(matrix, controls, static_cast<Qubit>(n - 1)));
  }
  reportCacheCounters(state, package);
}
BENCHMARK(BM_MakeControlledGateDD)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BuildUnitaryGhz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::ghz(n);
  dd::PackageStats stats;
  for (auto _ : state) {
    dd::Package package(n);
    auto e = sim::buildUnitaryDD(package, circuit);
    benchmark::DoNotOptimize(e);
    stats = package.stats();
    package.decRef(e);
  }
  state.counters["gate_cache_hit_rate"] = stats.gateCache.hitRate();
  reportNodeStoreCounters(state, stats);
}
BENCHMARK(BM_BuildUnitaryGhz)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BuildUnitaryQft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::qft(n);
  dd::PackageStats stats;
  for (auto _ : state) {
    dd::Package package(n);
    auto e = sim::buildUnitaryDD(package, circuit);
    benchmark::DoNotOptimize(e);
    stats = package.stats();
    package.decRef(e);
  }
  state.counters["gate_cache_hit_rate"] = stats.gateCache.hitRate();
  reportNodeStoreCounters(state, stats);
}
// Full QFT matrix DDs grow steeply with n (the construction
// infeasibility the alternating checker avoids) — keep sizes small.
BENCHMARK(BM_BuildUnitaryQft)->Arg(4)->Arg(6)->Arg(8);

void BM_MultiplySelf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package package(n);
  auto e = sim::buildUnitaryDD(package, circuits::qft(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(package.multiply(e, e));
    package.garbageCollect();
  }
  package.decRef(e);
}
BENCHMARK(BM_MultiplySelf)->Arg(4)->Arg(6);

void BM_Trace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package package(n);
  auto e = sim::buildUnitaryDD(package, circuits::qft(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(package.trace(e));
  }
  package.decRef(e);
}
BENCHMARK(BM_Trace)->Arg(4)->Arg(6)->Arg(8);

void BM_SimulateGrover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::grover(n, 3);
  for (auto _ : state) {
    dd::Package package(n);
    auto result = sim::simulate(package, circuit, package.makeZeroState());
    benchmark::DoNotOptimize(result);
    package.decRef(result);
  }
}
BENCHMARK(BM_SimulateGrover)->Arg(4)->Arg(6);

/// Table-1-style repeated-gate workload: Grover iterations repeat the same
/// oracle/diffusion gates over and over, so the gate-DD cache carries the
/// construction.
void BM_BuildUnitaryGroverRepeated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::grover(n, 3);
  double hitRate = 0.0;
  for (auto _ : state) {
    dd::Package package(n);
    auto e = sim::buildUnitaryDD(package, circuit);
    benchmark::DoNotOptimize(e);
    hitRate = package.stats().gateCache.hitRate();
    package.decRef(e);
  }
  state.counters["gate_cache_hit_rate"] = hitRate;
}
BENCHMARK(BM_BuildUnitaryGroverRepeated)->Arg(4)->Arg(6);

/// End-to-end alternating equivalence check of grover(6, 10) against itself
/// with the proportional oracle — the DD-kernel-bound workload the release
/// perf-regression gate tracks (unique-table probes, compute-table traffic
/// and GC sweeps all on the hot path).
void BM_AlternatingGroverCheck(benchmark::State& state) {
  const auto circuit = circuits::grover(6, 10);
  check::Configuration config;
  config.oracle = check::OracleStrategy::Proportional;
  for (auto _ : state) {
    const auto result = check::ddAlternatingCheck(circuit, circuit, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AlternatingGroverCheck)->Unit(benchmark::kMillisecond);

/// Random-stimuli equivalence check: sequential (1 worker) vs. a small
/// thread pool. Each worker owns its own package; identical verdicts by
/// construction (per-stimulus-index seeding).
void BM_SimulationCheckThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::grover(5, 3);
  check::Configuration config;
  config.simulationRuns = 16;
  config.simulationThreads = threads;
  config.stimuliKind = sim::StimuliKind::LocalQuantum;
  std::size_t performed = 0;
  for (auto _ : state) {
    const auto result = check::ddSimulationCheck(circuit, circuit, config);
    benchmark::DoNotOptimize(result);
    performed = result.performedSimulations;
  }
  state.counters["performed"] = static_cast<double>(performed);
}
BENCHMARK(BM_SimulationCheckThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Build type the DD library was compiled as. VERIQC_BUILD_TYPE carries the
/// configured CMAKE_BUILD_TYPE; NDEBUG distinguishes a real optimized build
/// from a debug one when the cache variable lies (e.g. a stale build tree).
const char* libraryBuildType() {
#ifdef NDEBUG
#ifdef VERIQC_BUILD_TYPE
  return VERIQC_BUILD_TYPE;
#else
  return "Release";
#endif
#else
  return "Debug";
#endif
}

} // namespace

int main(int argc, char** argv) {
  // `--veriqc_build_type` prints the library build type and exits, so the
  // bench driver can stamp it into the JSON and refuse non-Release numbers.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--veriqc_build_type") {
      std::printf("%s\n", libraryBuildType());
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
