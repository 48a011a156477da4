/// \file main.cpp
/// \brief perfbench: the end-to-end benchmark binary of veriqc.
///
///   perfbench --workload table1a_compiled|table1b_optimized|veriqcd_stream
///             --seed N --seconds S [--trace 0|1] [--quick]
///             [--data-dir DIR] [--trace-out FILE]
///   perfbench --confirm
///
/// Prints NDJSON rows (see bench.hpp); run.py turns them into metrics.
/// --confirm checks the NEQ expectations of expected.txt (confirm.cpp).
#include "bench.hpp"

#include "support/mutex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

int runConfirm();

namespace {

const auto kOrigin = std::chrono::steady_clock::now();
veriqc::support::Mutex emitMutex;

} // namespace

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kOrigin)
      .count();
}

std::chrono::steady_clock::time_point timeAt(const double seconds) {
  return kOrigin + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(seconds));
}

void emit(const veriqc::obs::Json& row) {
  const auto line = row.dump();
  const veriqc::support::LockGuard lock(emitMutex);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void SetupLog::add(const double seconds, const LayerTimes& times) {
  seconds_.push_back(seconds);
  layers_.push_back(times);
}

int SetupLog::wanted() const {
  const double first = seconds_.empty() ? 0.0 : seconds_.front();
  const double fit =
      first > 0.0 ? std::floor(kSetupBudgetSeconds / first) : kSetupMaxRepetitions;
  return static_cast<int>(std::clamp<double>(fit, kSetupRepetitions,
                                             kSetupMaxRepetitions));
}

void SetupLog::emitRow() const {
  auto row = veriqc::obs::Json::object();
  row["kind"] = "setup";
  auto seconds = veriqc::obs::Json::array();
  auto layers = veriqc::obs::Json::array();
  for (std::size_t rep = 0; rep < seconds_.size(); ++rep) {
    seconds.push_back(seconds_[rep]);
    auto layer = veriqc::obs::Json::object();
    for (const auto& [name, value] : layers_[rep]) {
      layer[name] = value;
    }
    layers.push_back(std::move(layer));
  }
  row["seconds"] = std::move(seconds);
  row["layers"] = std::move(layers);
  emit(row);
}

double peakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool confirm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--data-dir") {
        options.dataDir = value();
      } else if (arg == "--trace-out") {
        options.traceOut = value();
      } else if (arg == "--confirm") {
        confirm = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  try {
    if (confirm) {
      return perfbench::runConfirm();
    }
    auto provenance = veriqc::obs::Json::object();
    provenance["kind"] = "provenance";
    provenance["workload"] = options.workload;
    provenance["build_type"] = PERFBENCH_BUILD_TYPE;
    provenance["hardware_concurrency"] =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    provenance["seed"] = static_cast<std::size_t>(options.seed);
    provenance["limit_s"] = perfbench::kLimitSeconds;
    provenance["rate"] = perfbench::kRate;
    provenance["seconds"] = options.seconds;
    provenance["quick"] = options.quick;
    perfbench::emit(provenance);
    if (options.workload == "table1a_compiled" ||
        options.workload == "table1b_optimized") {
      return perfbench::runTables(options);
    }
    if (options.workload == "veriqcd_stream") {
      return perfbench::runStream(options);
    }
    usage(("unknown workload '" + options.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
