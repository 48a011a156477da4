#include "check/manager.hpp"
#include "check/report.hpp"
#include "circuits/benchmarks.hpp"
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace veriqc;
using namespace veriqc::check;
using veriqc::obs::Json;

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

constexpr std::array<EquivalenceCriterion, 10> kAllCriteria = {
    EquivalenceCriterion::Equivalent,
    EquivalenceCriterion::EquivalentUpToGlobalPhase,
    EquivalenceCriterion::NotEquivalent,
    EquivalenceCriterion::ProbablyEquivalent,
    EquivalenceCriterion::NoInformation,
    EquivalenceCriterion::Timeout,
    EquivalenceCriterion::Cancelled,
    EquivalenceCriterion::ResourceExhausted,
    EquivalenceCriterion::EngineError,
    EquivalenceCriterion::NotRun,
};

/// A fully deterministic run record covering every verdict kind and every
/// optional data channel (ZX rule stats, DD caches, size trace, counters),
/// used by the golden-file test.
Json goldenReport() {
  Configuration config;
  config.timeout = std::chrono::milliseconds(1500);
  config.runZX = true;
  config.recordTrace = true;
  config.maxDDNodes = 100000;

  std::vector<Result> engines;
  for (std::size_t i = 0; i < kAllCriteria.size(); ++i) {
    Result r;
    r.criterion = kAllCriteria[i];
    r.method = "engine-" + std::to_string(i);
    r.runtimeSeconds = 0.125 * static_cast<double>(i);
    engines.push_back(std::move(r));
  }
  // Flesh out a DD-style slot...
  engines[0].performedSimulations = 16;
  engines[0].hilbertSchmidtFidelity = 1.0;
  engines[0].peakNodes = 42;
  engines[0].sizeTrace = {4, 8, 12, 8, 4};
  engines[0].computeCacheStats = {100, 75, 5, 25, 2};
  engines[0].gateCacheStats = {30, 20, 0, 10, 1};
  engines[0].counters.add("dd.multiply.lookups", 100);
  engines[0].counters.max("dd.nodes.peak", 42);
  // ... a ZX-style slot ...
  engines[1].rewrites = 23;
  engines[1].remainingSpiders = 6;
  engines[1].zxRuleStats = {{"spider", 40, 8, 12, 0.001},
                            {"pivot", 17, 3, 11, 0.002}};
  engines[1].counters.add("zx.rewrites", 23);
  // ... a counterexample slot and the failure slots.
  engines[2].counterexampleStimulus = 3;
  engines[7].errorMessage = "node budget of 100000 exceeded";
  engines[8].errorMessage = "unknown exception";
  // A slot that walked the degradation ladder: the ResourceExhausted final
  // state carries its attempt lineage and the rung of the last attempt.
  engines[7].degradation = "gc-tight";
  engines[7].attempts = {
      {"engine-7", 0, "", "resource_exhausted", 0.25,
       "node budget of 100000 exceeded"},
      {"engine-7", 1, "gc-tight", "resource_exhausted", 0.5,
       "node budget of 100000 exceeded"},
  };

  // As the manager builds it: the winner's record, but only manager-level
  // counters (the engines' own counters stay on their slots).
  Result combined = engines[0];
  combined.counters = obs::CounterRegistry{};
  combined.counters.add("task_pool/suppressed_exceptions", 1);
  combined.method = "manager";
  combined.runtimeSeconds = 1.25;
  combined.resourceLimitedEngines = {"engine-7"};
  combined.peakResidentSetKB = 51200;
  combined.processPeakResidentSetKB = 73728;
  combined.attempts = engines[7].attempts;

  std::vector<obs::PhaseSpan> phases = {
      {"parse", 0.0, 0.01},
      {"prepare", 0.01, 0.002},
      {"engine:engine-0", 0.012, 1.2},
      {"combine", 1.212, 0.001},
  };
  return buildRunReport(combined, engines, config, phases);
}

} // namespace

// --- criterion keys ----------------------------------------------------------

TEST(CriterionKeyTest, RoundTripsEveryVerdict) {
  for (const auto criterion : kAllCriteria) {
    const auto key = criterionKey(criterion);
    EXPECT_NE(key, "unknown") << toString(criterion);
    const auto back = criterionFromKey(key);
    ASSERT_TRUE(back.has_value()) << key;
    EXPECT_EQ(*back, criterion) << key;
  }
}

TEST(CriterionKeyTest, UnknownKeysAreRejected) {
  EXPECT_FALSE(criterionFromKey("definitely_not_a_verdict").has_value());
  EXPECT_FALSE(criterionFromKey("").has_value());
  // Keys are exact: the display form is not a schema key.
  EXPECT_FALSE(criterionFromKey("Equivalent").has_value());
}

// --- serialization -----------------------------------------------------------

TEST(SerializeResultTest, EveryKeyIsAlwaysPresent) {
  const auto record = serializeResult(Result{});
  for (const char* key :
       {"method", "verdict", "runtimeSeconds", "performedSimulations",
        "hilbertSchmidtFidelity", "counterexampleStimulus", "errorMessage",
        "zx", "dd", "sizeTrace", "counters"}) {
    EXPECT_TRUE(record.contains(key)) << key;
  }
  EXPECT_EQ(record.at("verdict").asString(), "no_information");
  EXPECT_TRUE(record.at("sizeTrace").asArray().empty());
  EXPECT_TRUE(record.at("zx").at("rules").asArray().empty());
}

TEST(GoldenReportTest, MatchesGoldenFileByteForByte) {
  const auto report = goldenReport();
  const auto goldenPath =
      std::string(VERIQC_GOLDEN_DIR) + "/report_all_verdicts.json";
  if (std::getenv("VERIQC_REGEN_GOLDEN") != nullptr) {
    writeRunReport(report, goldenPath);
    GTEST_SKIP() << "regenerated " << goldenPath;
  }
  const auto expected = readFile(goldenPath);
  EXPECT_EQ(report.dump(2) + "\n", expected)
      << "golden mismatch — if the schema changed intentionally, regenerate "
      << goldenPath;
}

TEST(GoldenReportTest, GoldenFileIsValidAndRoundTrips) {
  const auto goldenPath =
      std::string(VERIQC_GOLDEN_DIR) + "/report_all_verdicts.json";
  const auto parsed = Json::parse(readFile(goldenPath));
  EXPECT_TRUE(validateRunReport(parsed).empty());
  EXPECT_EQ(parsed, goldenReport());
  // Every engine slot's verdict key decodes back to its enum value.
  const auto& engines = parsed.at("engines").asArray();
  ASSERT_EQ(engines.size(), kAllCriteria.size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto key = engines[i].at("verdict").asString();
    ASSERT_TRUE(criterionFromKey(key).has_value()) << key;
    EXPECT_EQ(*criterionFromKey(key), kAllCriteria[i]);
  }
}

TEST(GoldenReportTest, EngineCountersAreNamespacedBySlot) {
  // Regression: with several engines racing, the top-level counters object
  // used to merge every engine's "dd.*" counters into one flat sum, so the
  // per-engine share was unrecoverable. Each engine's counters must now
  // also appear under an "engine:<method>/" prefix, alongside the flat
  // run-wide totals.
  const auto report = goldenReport();
  const auto& counters = report.at("counters");
  ASSERT_NE(counters.find("engine:engine-0/dd.multiply.lookups"), nullptr);
  ASSERT_NE(counters.find("engine:engine-0/dd.nodes.peak"), nullptr);
  ASSERT_NE(counters.find("engine:engine-1/zx.rewrites"), nullptr);
  EXPECT_DOUBLE_EQ(
      counters.at("engine:engine-0/dd.multiply.lookups").asDouble(), 100.0);
  EXPECT_DOUBLE_EQ(counters.at("engine:engine-1/zx.rewrites").asDouble(),
                   23.0);
  // Flat totals count every engine once: the combined record carries only
  // manager-level counters, never a second copy of the winner's.
  EXPECT_DOUBLE_EQ(counters.at("dd.multiply.lookups").asDouble(), 100.0);
  EXPECT_DOUBLE_EQ(counters.at("zx.rewrites").asDouble(), 23.0);
  EXPECT_DOUBLE_EQ(
      counters.at("task_pool/suppressed_exceptions").asDouble(), 1.0);
}

// --- validator ---------------------------------------------------------------

TEST(ValidateReportTest, AcceptsFreshReports) {
  EXPECT_TRUE(validateRunReport(goldenReport()).empty());
}

TEST(ValidateReportTest, RejectsNonObjects) {
  EXPECT_FALSE(validateRunReport(Json(42)).empty());
  EXPECT_FALSE(validateRunReport(Json::array()).empty());
}

TEST(ValidateReportTest, RejectsWrongSchemaId) {
  auto report = goldenReport();
  report["schema"] = "veriqc-report/v999";
  const auto errors = validateRunReport(report);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("schema"), std::string::npos);
}

TEST(ValidateReportTest, RejectsUnknownVerdictKeys) {
  auto report = goldenReport();
  report["verdict"]["verdict"] = "maybe";
  const auto errors = validateRunReport(report);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("unknown verdict key"), std::string::npos);
}

TEST(ValidateReportTest, RejectsMissingAndMistypedMembers) {
  {
    // Engine record missing a required key.
    auto report = goldenReport();
    auto stripped = Json::object();
    stripped["verdict"] = "equivalent";
    report["engines"].push_back(stripped);
    EXPECT_FALSE(validateRunReport(report).empty());
  }
  {
    // Phases must be span objects, not strings.
    auto report = goldenReport();
    report["phases"].push_back("not a span");
    EXPECT_FALSE(validateRunReport(report).empty());
  }
  {
    // Counter values must be numbers.
    auto report = goldenReport();
    report["counters"]["bad"] = "text";
    EXPECT_FALSE(validateRunReport(report).empty());
  }
  {
    // sizeTrace holds integers only.
    auto report = goldenReport();
    report["verdict"]["sizeTrace"].push_back(1.5);
    EXPECT_FALSE(validateRunReport(report).empty());
  }
}

TEST(ValidateReportTest, AcceptsAndChecksTheOptionalJobObject) {
  // A well-formed job object (as attached by veriqcd) validates...
  auto report = goldenReport();
  auto job = Json::object();
  job["id"] = "batch-17";
  job["admitted"] = false;
  job["reason"] = "queue_full";
  job["detail"] = "64 jobs queued";
  report["job"] = job;
  EXPECT_TRUE(validateRunReport(report).empty());

  // ... but a mistyped member does not.
  report["job"]["admitted"] = "no";
  EXPECT_FALSE(validateRunReport(report).empty());
  report["job"] = Json(7);
  EXPECT_FALSE(validateRunReport(report).empty());
}

TEST(ValidateReportTest, ProcessPeakResidentSetMustBeAnInteger) {
  auto report = goldenReport();
  report["resources"]["processPeakResidentSetKB"] = "lots";
  EXPECT_FALSE(validateRunReport(report).empty());
}

// --- live manager round trip -------------------------------------------------

TEST(LiveReportTest, ManagerRunSerializesParsesAndMatchesEngineResults) {
  Configuration config;
  config.simulationRuns = 4;
  config.runZX = true;
  config.recordTrace = true;
  config.parallel = false;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  const auto report = buildRunReport(manager, combined, config);
  EXPECT_TRUE(validateRunReport(report).empty());

  // The document survives a disk round trip bit-for-bit.
  // Per-process name: ctest runs test cases as concurrent processes.
  const auto path = std::string(::testing::TempDir()) + "live_report_" +
                    std::to_string(::getpid()) + ".json";
  writeRunReport(report, path);
  const auto reparsed = Json::parse(readFile(path));
  EXPECT_EQ(reparsed, report);
  std::remove(path.c_str());

  // Engine slots mirror engineResults() in order, verdict and method.
  const auto& engines = reparsed.at("engines").asArray();
  ASSERT_EQ(engines.size(), manager.engineResults().size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto& slot = manager.engineResults()[i];
    EXPECT_EQ(engines[i].at("method").asString(), slot.method);
    EXPECT_EQ(engines[i].at("verdict").asString(),
              criterionKey(slot.criterion));
    EXPECT_DOUBLE_EQ(engines[i].at("runtimeSeconds").asDouble(),
                     slot.runtimeSeconds);
  }
  EXPECT_EQ(reparsed.at("verdict").at("verdict").asString(),
            criterionKey(combined.criterion));

  // The phase list carries the manager's span structure.
  const auto& phases = reparsed.at("phases").asArray();
  std::vector<std::string> names;
  names.reserve(phases.size());
  for (const auto& span : phases) {
    names.push_back(span.at("name").asString());
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "prepare"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "combine"), names.end());
  std::size_t engineSpans = 0;
  for (const auto& name : names) {
    engineSpans += name.rfind("engine:", 0) == 0 ? 1 : 0;
  }
  // The sequential manager stops launching engines once a definitive
  // verdict lands, so at least one engine span exists (possibly fewer
  // than the configured slots).
  EXPECT_GE(engineSpans, 1U);

  // DD cache counters reach the report.
  const auto& counters = reparsed.at("counters").asObject();
  EXPECT_FALSE(counters.empty());
  bool sawDDCounter = false;
  for (const auto& [name, value] : counters) {
    sawDDCounter = sawDDCounter || name.rfind("dd.", 0) == 0;
  }
  EXPECT_TRUE(sawDDCounter);
}

TEST(LiveReportTest, OneEngineRunCountsEveryCounterOnce) {
  // Regression: the combined record used to carry a copy of the winner's
  // counters, so the flat run-wide totals counted the winning engine twice
  // (qft_6: dd.add.lookups 160 against the engine's own 80).
  Configuration config;
  config.runSimulation = false;
  config.parallel = false;
  EquivalenceCheckingManager manager(circuits::qft(6), circuits::qft(6),
                                     config);
  const auto combined = manager.run();
  ASSERT_TRUE(provedEquivalent(combined.criterion)) << combined.toString();
  ASSERT_EQ(manager.engineResults().size(), 1U);
  const auto& engine = manager.engineResults()[0];
  ASSERT_FALSE(engine.counters.empty());
  EXPECT_TRUE(combined.counters.empty());
  const auto report = buildRunReport(manager, combined, config);
  const auto& counters = report.at("counters");
  for (const auto& [name, counter] : engine.counters.entries()) {
    const auto* flat = counters.find(name);
    ASSERT_NE(flat, nullptr) << name;
    EXPECT_DOUBLE_EQ(flat->asDouble(), counter.value) << name;
  }
}
