/// \file stream.cpp
/// \brief The veriqcd_stream workload: an in-process serve::JobService fed
///        NDJSON job lines by a seeded open loop.
///
/// Jobs are the 84 Table 1(a)+(b) pairs, written to QASM during set-up and
/// checked under the daemon's default configuration (DD alternating racing
/// simulation, no ZX) with the shared gate cache on. Arrivals are
/// jittered-uniform at a fixed rate (job k is due at (k + u) / kRate); each
/// job's latency runs from its due time to its report callback, so a stall
/// also charges the jobs queued behind it.
/// One job runs at a time (the daemon's default) with its two engines on a
/// 2-slot pool; with the generator that is 4 threads on a 4-core box. Two
/// concurrent jobs made the jobs' run spans depend on which heavy jobs
/// happened to overlap (their sum moved by 33% between runs): on a 2-slot
/// pool a waiting worker runs the other job's queued engine task, so a
/// 20 ms job waits out a 3 s one, and even with a slot per engine task two
/// heavy DD checks slow each other by up to 2x.
#include "bench.hpp"
#include "trace.hpp"

#include "compile/decompose.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include <unistd.h>

namespace perfbench {

namespace {

using veriqc::obs::Json;
namespace serve = veriqc::serve;
namespace fs = std::filesystem;

struct JobFiles {
  const Pair* pair = nullptr;
  std::string file1;
  std::string file2;
};

/// Reports of one stream, filled by the service's worker thread.
struct Reports {
  veriqc::support::Mutex mutex;
  std::vector<double> done VERIQC_GUARDED_BY(mutex);
  std::vector<Json> reports VERIQC_GUARDED_BY(mutex);
  std::size_t count VERIQC_GUARDED_BY(mutex) = 0;

  void reset(const std::size_t jobs) {
    const veriqc::support::LockGuard lock(mutex);
    done.assign(jobs, -1.0);
    reports.assign(jobs, Json());
    count = 0;
  }
};

std::unique_ptr<serve::JobService> startService(Reports& reports) {
  serve::ServiceLimits limits;
  limits.maxActiveJobs = 1;
  limits.maxQueuedJobs = 256;
  limits.poolSlots = 2;
  limits.useSharedGateCache = true;
  veriqc::check::Configuration defaults;
  defaults.simulationRuns = 16;
  defaults.timeout = checkLimit();
  return std::make_unique<serve::JobService>(
      limits, defaults,
      [&reports](const std::string& jobId, const Json& report) {
        const double at = now();
        const auto index = std::stoul(jobId.substr(1));
        const veriqc::support::LockGuard lock(reports.mutex);
        reports.done.at(index) = at;
        reports.reports.at(index) = report;
        ++reports.count;
      });
}

/// "j<k>": the id of job k in its submission, report and trace spans.
std::string jobId(const std::size_t k) {
  std::string id = "j";
  id += std::to_string(k);
  return id;
}

/// The NDJSON submission of job `k`.
std::string jobLine(const std::size_t k, const JobFiles& files,
                    const bool traced) {
  auto line = Json::object();
  line["id"] = jobId(k);
  line["file1"] = files.file1;
  line["file2"] = files.file2;
  if (traced) {
    auto config = Json::object();
    config["recordTrace"] = true;
    line["config"] = std::move(config);
  }
  return line.dump();
}

/// Engine records of a report in the shape of a table cell's "engines".
Json engineRows(const Json& report, std::int64_t& diagramPeak,
                double& slabPeak, std::int64_t& counterexample) {
  auto engines = Json::array();
  const auto* list = report.find("engines");
  if (list == nullptr) {
    return engines;
  }
  for (const auto& engine : list->asArray()) {
    auto row = Json::object();
    row["method"] = engine.at("method");
    row["verdict"] = engine.at("verdict");
    row["seconds"] = engine.at("runtimeSeconds");
    auto counters = Json::object();
    for (const auto& [name, value] : engine.at("counters").asObject()) {
      if (isLayerCounter(name)) {
        counters[name] = value;
      }
      if (name == "dd.nodes.peak") {
        slabPeak = std::max(slabPeak, value.asDouble());
      }
    }
    row["counters"] = std::move(counters);
    row["zx_rules"] = Json::array();
    for (const auto& size : engine.at("sizeTrace").asArray()) {
      diagramPeak = std::max(diagramPeak, size.asInt());
    }
    counterexample =
        std::max(counterexample, engine.at("counterexampleStimulus").asInt());
    engines.push_back(std::move(row));
  }
  return engines;
}

/// Run one open-loop stream of `order.size()` jobs and emit one row per job
/// plus a "stream" summary row. Returns each job's run span.
std::vector<double> runOnce(const Options& options,
                            const std::vector<JobFiles>& files,
                            const std::vector<std::size_t>& order,
                            const std::vector<double>& dueOffsets,
                            Reports& reports, serve::JobService& service,
                            Tracer& tracer) {
  const bool traced = options.trace;
  const std::size_t jobs = order.size();
  reports.reset(jobs);
  std::vector<double> submitStart(jobs, 0.0);
  std::vector<double> submitEnd(jobs, 0.0);
  std::vector<std::string> lines(jobs);
  for (std::size_t k = 0; k < jobs; ++k) {
    lines[k] = jobLine(k, files[order[k]], traced);
  }

  const double origin = now() + 0.05;
  std::thread generator([&] {
    for (std::size_t k = 0; k < jobs; ++k) {
      std::this_thread::sleep_until(timeAt(origin + dueOffsets[k]));
      submitStart[k] = now();
      static_cast<void>(service.submitLine(lines[k]));
      submitEnd[k] = now();
    }
  });

  // Poll the queue depth until every job has reported. A job ends within
  // the per-check limit, so the wait is bounded by the schedule plus the
  // limit for each job still queued behind the last arrival.
  std::size_t depthMax = 0;
  while (true) {
    depthMax = std::max(depthMax, service.stats().queued);
    {
      const veriqc::support::LockGuard lock(reports.mutex);
      if (reports.count == jobs) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  generator.join();
  service.drain();

  double lagMax = 0.0;
  std::vector<double> runs;
  double lastDone = origin;
  const veriqc::support::LockGuard lock(reports.mutex);
  for (std::size_t k = 0; k < jobs; ++k) {
    const auto& pair = *files[order[k]].pair;
    const auto& report = reports.reports[k];
    const double due = origin + dueOffsets[k];
    const double done = reports.done[k];
    lagMax = std::max(lagMax, submitStart[k] - due);
    lastDone = std::max(lastDone, done);
    const auto& verdict = report.at("verdict");
    const auto& job = report.at("job");
    const double run = verdict.at("runtimeSeconds").asDouble();

    auto row = Json::object();
    row["kind"] = "job";
    row["id"] = jobId(k);
    row["table"] = pair.table;
    row["instance"] = pair.instance;
    row["config"] = pair.config;
    row["method"] = "dd";
    row["n"] = pair.g.numQubits();
    row["g"] = pair.g.gateCount();
    row["gp"] = pair.gPrime.gateCount();
    row["verdict"] = verdict.at("verdict");
    row["winner"] = verdict.at("method");
    row["admitted"] = job.at("admitted");
    row["reason"] = job.at("reason");
    row["due"] = due;
    row["lag"] = submitStart[k] - due;
    row["latency"] = done - due;
    row["seconds"] = run;
    std::int64_t diagramPeak = -1;
    double slabPeak = 0.0;
    std::int64_t counterexample = -1;
    row["engines"] = engineRows(report, diagramPeak, slabPeak, counterexample);
    row["slab_peak"] = slabPeak;
    row["diagram_peak"] = traced ? Json(diagramPeak) : Json();
    row["counterexample"] = counterexample;
    auto phases = Json::array();
    double phaseEnd = 0.0;
    double phaseStart = 0.0;
    const auto& phaseList = report.at("phases").asArray();
    for (std::size_t p = 0; p < phaseList.size(); ++p) {
      const double start = phaseList[p].at("startSeconds").asDouble();
      const double length = phaseList[p].at("durationSeconds").asDouble();
      phaseStart = p == 0 ? start : std::min(phaseStart, start);
      phaseEnd = std::max(phaseEnd, start + length);
      auto phase = Json::object();
      phase["name"] = phaseList[p].at("name");
      phase["seconds"] = length;
      phases.push_back(std::move(phase));
    }
    row["phases"] = std::move(phases);
    row["traced"] = traced;
    runs.push_back(run);

    if (tracer.enabled()) {
      // The daemon reports its phases relative to the manager's timer, so
      // the check span is anchored at the report callback: it ends there
      // and lasts as long as the phases do. Children are clamped into it.
      const std::string& id = row.at("id").asString();
      const auto root =
          tracer.record(id, "job", 0, due, std::max(done, submitEnd[k]));
      tracer.record(id, "serve.submit", root, std::max(due, submitStart[k]),
                    std::max(due, submitEnd[k]));
      const double runEnd = done;
      const double runStart = std::max(due, done - (phaseEnd - phaseStart));
      const auto check = tracer.record(id, "check", root, runStart, runEnd);
      for (const auto& phase : phaseList) {
        const double start =
            runStart + phase.at("startSeconds").asDouble() - phaseStart;
        const double end = start + phase.at("durationSeconds").asDouble();
        tracer.record(id, phase.at("name").asString(), check,
                      std::clamp(start, runStart, runEnd),
                      std::clamp(end, runStart, runEnd));
      }
    }
    emit(row);
  }

  auto summary = Json::object();
  summary["kind"] = "stream";
  summary["traced"] = traced;
  summary["jobs"] = jobs;
  summary["rate"] = kRate;
  summary["lag_max_s"] = lagMax;
  summary["queue_depth_max"] = depthMax;
  summary["elapsed_s"] = lastDone - origin;
  const auto metrics = service.metricsJson();
  auto serveCounters = Json::object();
  for (const auto& [name, value] : metrics.at("counters").asObject()) {
    if (name.rfind("serve/", 0) == 0) {
      serveCounters[name] = value;
    }
  }
  summary["serve"] = std::move(serveCounters);
  emit(summary);
  return runs;
}

/// Submit `jobs` one at a time (each after the previous one reported) to a
/// fresh service; returns the summed run spans.
double replay(const std::vector<JobFiles>& files,
              const std::vector<std::size_t>& jobs, const bool traced) {
  Reports reports;
  reports.reset(jobs.size());
  auto service = startService(reports);
  double total = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    service->submitLine(jobLine(k, files[jobs[k]], traced));
    service->drain();
    const veriqc::support::LockGuard lock(reports.mutex);
    total += reports.reports[k].at("verdict").at("runtimeSeconds").asDouble();
  }
  service->shutdown(false);
  return total;
}

/// What one set-up makes: the pairs of both tables, their QASM job files
/// and a started service.
struct Deployment {
  std::vector<Pair> pairs;
  std::vector<JobFiles> files;
  std::unique_ptr<serve::JobService> service;
};

/// One timed set-up, writing the job files under `dir` and starting a
/// service that reports into `reports`.
Deployment deploy(const bool quick, const fs::path& dir, Reports& reports,
                  Tracer& tracer, SetupLog& setupLog) {
  Deployment out;
  LayerTimes times;
  const auto span = tracer.open("setup", "setup", 0);
  const double start = now();
  out.pairs = buildPairs("table1a", quick, times, tracer, span);
  auto more = buildPairs("table1b", quick, times, tracer, span);
  std::move(more.begin(), more.end(), std::back_inserter(out.pairs));

  const auto write = tracer.open("setup", "qasm.write_s", span);
  const double writeStart = now();
  fs::create_directories(dir);
  for (const auto& pair : out.pairs) {
    std::string name = pair.key();
    std::replace(name.begin(), name.end(), '/', '_');
    const std::string stem = (dir / name).string();
    out.files.push_back({&pair, stem + "_g.qasm", stem + "_gp.qasm"});
    // QASM carries no layout or output permutation, so they are written
    // as explicit SWAP networks.
    try {
      veriqc::qasm::writeFile(pair.g.withExplicitPermutations(),
                              out.files.back().file1);
    } catch (const veriqc::CircuitError&) {
      // OpenQASM 2 cannot spell every multi-controlled gate of the
      // originals (Grover's cccz); such a G goes out as its {1q, CX}
      // decomposition, as a client's toolchain would have to send it.
      veriqc::qasm::writeFile(
          veriqc::compile::decomposeToCnot(pair.g).withExplicitPermutations(),
          out.files.back().file1);
    }
    veriqc::qasm::writeFile(pair.gPrime.withExplicitPermutations(),
                            out.files.back().file2);
  }
  times["qasm.write_s"] = now() - writeStart;
  tracer.close(write);

  const auto serveSpan = tracer.open("setup", "serve.start_s", span);
  const double serveStart = now();
  out.service = startService(reports);
  times["serve.start_s"] = now() - serveStart;
  tracer.close(serveSpan);
  setupLog.add(now() - start, times);
  tracer.close(span);
  return out;
}

} // namespace

int runStream(const Options& options) {
  Tracer tracer(options.trace);
  const fs::path dir = fs::path(options.dataDir) /
                       ("stream-" + std::to_string(options.seed) + "-" +
                        std::to_string(::getpid()));
  const fs::path spareDir = dir.string() + "-spare";
  fs::remove_all(dir);
  Reports reports;
  // Set-up is repeated (see SetupLog): once here, whose deployment serves
  // the stream, and the other repetitions after the stream, which cannot
  // pause for them.
  SetupLog setupLog;
  auto deployment = deploy(options.quick, dir, reports, tracer, setupLog);
  const auto& files = deployment.files;
  auto& service = deployment.service;

  // The schedule is made of decks. A deck holds each of the 84 pairs once,
  // in one fixed shuffled order: which jobs queue behind graph_state_62
  // (3 s) sets most of the latency, so the order is not left to --seed.
  // A run checks kRate x seconds jobs rounded to whole decks.
  std::vector<std::size_t> deck(files.size());
  std::iota(deck.begin(), deck.end(), 0);
  std::mt19937_64 shuffle(0x5eedULL);
  std::shuffle(deck.begin(), deck.end(), shuffle);
  const double perDeck = static_cast<double>(deck.size());
  const auto decks = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(kRate * options.seconds / perDeck)));
  std::vector<std::size_t> order;
  for (std::size_t d = 0; d < decks; ++d) {
    order.insert(order.end(), deck.begin(), deck.end());
  }
  if (options.quick) {
    order.resize(std::min<std::size_t>(order.size(), 6));
  }
  const std::size_t jobs = order.size();
  // Job k is due at (k + u) / rate with u uniform in [0, 1): a fixed rate
  // whose arrivals are seeded but never bunch up more than two per slot.
  std::mt19937_64 rng(options.seed * 0x2545f4914f6cdd1dULL + 0x5eedULL);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  std::vector<double> due(jobs);
  for (std::size_t k = 0; k < jobs; ++k) {
    due[k] = (static_cast<double>(k) + jitter(rng)) / kRate;
  }

  const auto runSeconds =
      runOnce(options, files, order, due, reports, *service, tracer);
  service->shutdown(false);
  {
    Reports spare;
    while (setupLog.done() < setupLog.wanted()) {
      fs::remove_all(spareDir);
      auto extra = deploy(options.quick, spareDir, spare, tracer, setupLog);
      extra.service->shutdown(true);
    }
    fs::remove_all(spareDir);
  }
  setupLog.emitRow();
  if (options.trace) {
    // Probes: parse every job file and build every job's gate DDs again.
    double parse = 0.0;
    double gates = 0.0;
    for (const auto index : order) {
      const auto& job = files[index];
      const auto span = tracer.open("probes", "probe:qasm.parse", 0, true);
      const double start = now();
      const auto g = veriqc::qasm::parseFile(job.file1);
      const auto gPrime = veriqc::qasm::parseFile(job.file2);
      parse += now() - start;
      tracer.close(span);
      const auto build = tracer.open("probes", "probe:dd.gate_build", 0, true);
      gates += probeGateBuild(g, gPrime);
      tracer.close(build);
    }
    auto probes = Json::object();
    probes["kind"] = "probes";
    probes["qasm.parse_s"] = parse;
    probes["dd.gate_build_s"] = gates;
    emit(probes);

    // Tracing overhead: the light jobs replayed one at a time, traced and
    // untraced, each replay on a fresh service so both start cold.
    std::vector<std::size_t> light;
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (runSeconds[k] < kLightSeconds) {
        light.push_back(order[k]);
      }
    }
    auto overhead = Json::object();
    overhead["kind"] = "overhead";
    overhead["traced_s"] = replay(files, light, true);
    overhead["untraced_s"] = replay(files, light, false);
    emit(overhead);
  }
  service.reset();
  fs::remove_all(dir);

  auto rss = Json::object();
  rss["kind"] = "resources";
  rss["peak_rss_mb"] = peakRssMB();
  emit(rss);
  tracer.write(options.traceOut);
  return 0;
}

} // namespace perfbench
