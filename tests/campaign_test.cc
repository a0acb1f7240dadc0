// Campaign engine coverage (src/exp/): spec parsing diagnostics, grid
// expansion determinism and dedup, resume-from-partial-output, and THE
// acceptance gate — campaigns/fig09_toy.json through the campaign runner
// is bit-identical to the direct harness path (the same six runs the fig09
// bench executes), at 1 and at 8 threads.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "carbon/trace_generator.h"
#include "common/json.h"
#include "exp/campaign.h"
#include "exp/journal.h"
#include "exp/runner.h"
#include "models/zoo.h"

namespace clover::exp {
namespace {

CampaignSpec ParseSpecText(const std::string& text) {
  return ParseCampaignSpec(ParseJson(text));
}

std::string FigToyPath() {
  return std::string(CLOVER_SOURCE_DIR) + "/campaigns/fig09_toy.json";
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Spec parsing and expansion.
// ---------------------------------------------------------------------------

TEST(CampaignSpecTest, ExpandsTheCrossProductSchemeInnermost) {
  const CampaignSpec spec = ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "order",
    "grid": {
      "scheme": ["base", "clover"],
      "app": ["detection", "classification"],
      "trace": "flat",
      "gpus": 2,
      "hours": 0.5
    }
  })");
  ASSERT_EQ(spec.cells.size(), 4u);
  EXPECT_EQ(spec.grid_cells, 4);
  EXPECT_EQ(spec.cells[0].Name(), "base-detection-flat-g2-h0.5-s1");
  EXPECT_EQ(spec.cells[1].Name(), "clover-detection-flat-g2-h0.5-s1");
  EXPECT_EQ(spec.cells[2].Name(), "base-classification-flat-g2-h0.5-s1");
  EXPECT_EQ(spec.cells[3].Name(), "clover-classification-flat-g2-h0.5-s1");
}

TEST(CampaignSpecTest, ExpansionIsDeterministic) {
  const std::string text = R"({
    "schema": "clover-campaign-v1",
    "name": "det",
    "grid": {
      "scheme": ["clover", "base"],
      "app": ["language"],
      "trace": ["step", "flat"],
      "gpus": [2, 4],
      "hours": [0.5, 1],
      "lambda": [0.25, 0.75],
      "seed": [1, 2],
      "fault_seed": [0, 9]
    }
  })";
  const CampaignSpec a = ParseSpecText(text);
  const CampaignSpec b = ParseSpecText(text);
  ASSERT_EQ(a.cells.size(), 128u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i]);
    EXPECT_EQ(a.cells[i].Name(), b.cells[i].Name());
  }
  // Names are injective over distinct cells.
  std::set<std::string> names;
  for (const CellSpec& cell : a.cells) names.insert(cell.Name());
  EXPECT_EQ(names.size(), a.cells.size());
}

TEST(CampaignSpecTest, DeduplicatesNormalizedIdenticalCells) {
  // gpus listed twice and sizing_gpus given both as 0 (= gpus) and
  // explicitly as the same value: 2*2*2 = 8 grid cells, 2 unique.
  const CampaignSpec spec = ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "dedup",
    "grid": {
      "scheme": ["base", "clover"],
      "app": "classification",
      "trace": "flat",
      "gpus": [2, 2],
      "sizing_gpus": [0, 2],
      "hours": 0.5
    }
  })");
  EXPECT_EQ(spec.grid_cells, 8);
  ASSERT_EQ(spec.cells.size(), 2u);
  EXPECT_EQ(spec.cells[0].Name(), "base-classification-flat-g2-h0.5-s1");
  EXPECT_EQ(spec.cells[1].Name(), "clover-classification-flat-g2-h0.5-s1");
}

TEST(CampaignSpecTest, ScreenAxisExpandsEncodesAndPlumbs) {
  const CampaignSpec spec = ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "screen",
    "grid": {
      "scheme": "clover",
      "app": "classification",
      "trace": "flat",
      "gpus": 2,
      "hours": 0.5,
      "screen": [1, 16]
    }
  })");
  ASSERT_EQ(spec.cells.size(), 2u);
  // The default (1 = off) is elided from the name; a real factor encodes.
  EXPECT_EQ(spec.cells[0].Name(), "clover-classification-flat-g2-h0.5-s1");
  EXPECT_EQ(spec.cells[1].Name(),
            "clover-classification-flat-g2-h0.5-s1-x16");
  EXPECT_EQ(spec.cells[0].screen, 1);
  EXPECT_EQ(spec.cells[1].screen, 16);
  EXPECT_NE(spec.cells[1].Describe().find("screen x16"), std::string::npos);
  EXPECT_FALSE(spec.cells[0] == spec.cells[1]);

  // The factor reaches the controller options of the materialized cell.
  const sim::FaultProfile profile;
  const carbon::CarbonTrace trace = MakeCellTrace(spec.cells[1]);
  const core::ExperimentConfig config =
      MakeCellConfig(spec.cells[1], profile, &trace);
  EXPECT_EQ(config.controller.screen_factor, 16);

  // Out-of-range factors are parse errors, not runtime surprises.
  for (const char* bad : {"0", "65", "-1"}) {
    EXPECT_THROW(ParseSpecText(std::string(R"({
      "schema": "clover-campaign-v1",
      "name": "bad",
      "grid": {"scheme": "clover", "app": "language", "screen": )") +
                               bad + "}}"),
                 JsonParseError)
        << "screen=" << bad;
  }
}

TEST(CampaignSpecTest, FidelityAndReplicaAxesExpandEncodeAndValidate) {
  const CampaignSpec spec = ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "fluid",
    "mode": "fleet",
    "grid": {
      "scheme": "base",
      "app": "classification",
      "regions": [["us-west", "us-east"]],
      "router": "static",
      "fidelity": ["sim", "meanfield"],
      "region_replicas": [1, 3],
      "gpus": 2,
      "hours": 1
    }
  })");
  ASSERT_EQ(spec.cells.size(), 4u);
  // Fixed axis order: replicas outside fidelity; suffixes only when the
  // value departs from the default, so plain sim/r1 names stay stable.
  EXPECT_EQ(spec.cells[0].Name(),
            "fleet-base-classification-static-us-west+us-east-g2-h1-s1");
  EXPECT_EQ(spec.cells[1].Name(),
            "fleet-base-classification-static-us-west+us-east-g2-h1-s1-mf");
  EXPECT_EQ(spec.cells[2].Name(),
            "fleet-base-classification-static-us-west+us-east-g2-h1-s1-r3");
  EXPECT_EQ(spec.cells[3].Name(),
            "fleet-base-classification-static-us-west+us-east-g2-h1-s1-r3-mf");
  EXPECT_FALSE(spec.cells[0].meanfield);
  EXPECT_TRUE(spec.cells[1].meanfield);
  EXPECT_EQ(spec.cells[3].region_replicas, 3);

  // The fluid tier runs static schemes only: meanfield x clover would be
  // an invalid cell, so the cross product is rejected at parse time.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "mode": "fleet",
    "grid": {"scheme": ["base", "clover"], "app": "classification",
             "regions": [["us-west"]], "fidelity": "meanfield"}
  })"),
               JsonParseError);
  // Unknown fidelity token.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "mode": "fleet",
    "grid": {"scheme": "base", "app": "classification",
             "regions": [["us-west"]], "fidelity": "fluid"}
  })"),
               JsonParseError);
  // Both are fleet-only axes in single-cluster mode.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "grid": {"scheme": "base", "app": "language", "fidelity": "meanfield"}
  })"),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "grid": {"scheme": "base", "app": "language", "region_replicas": 4}
  })"),
               JsonParseError);
  // Replica counts are bounded (1..512).
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "mode": "fleet",
    "grid": {"scheme": "base", "app": "classification",
             "regions": [["us-west"]], "region_replicas": 513}
  })"),
               JsonParseError);
}

TEST(CampaignSpecTest, FaultProfileKnobsAreBounded) {
  // Regression for the fault-profile validation fix: the parse layer must
  // reject out-of-range rates/means/multipliers with line/column context
  // instead of handing GenerateFaultSchedule a profile that only fails (or
  // worse, spins) at run time.
  const auto spec_with = [](const std::string& key, const std::string& value) {
    return std::string(R"({
      "schema": "clover-campaign-v1",
      "name": "faulty",
      "fault_profile": {")") +
           key + "\": " + value + R"(},
      "grid": {"scheme": "clover", "app": "language", "fault_seed": 3}
    })";
  };
  EXPECT_NO_THROW(ParseSpecText(spec_with("gpu_faults_per_hour", "0.5")));
  EXPECT_THROW(ParseSpecText(spec_with("gpu_faults_per_hour", "-1")),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(spec_with("gpu_faults_per_hour", "100")),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(spec_with("mean_gpu_outage_s", "0")),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(spec_with("flash_crowd_multiplier", "1.0")),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(spec_with("rtt_spike_ms", "-5")),
               JsonParseError);
  EXPECT_THROW(ParseSpecText(spec_with("not_a_knob", "1")), JsonParseError);
}

TEST(CampaignSpecTest, RejectionsCarryLineAndColumn) {
  // Unknown grid axis.
  try {
    ParseSpecText("{\n  \"schema\": \"clover-campaign-v1\",\n"
                  "  \"name\": \"bad\",\n"
                  "  \"grid\": {\"scheme\": \"base\", \"app\": \"language\",\n"
                  "           \"gpu\": 2}\n}");
    FAIL() << "accepted an unknown axis";
  } catch (const JsonParseError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown grid axis \"gpu\""),
              std::string::npos)
        << error.what();
    EXPECT_EQ(error.line(), 5);
  }
  // Unknown scheme value.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "grid": {"scheme": "fastest", "app": "language"}
  })"),
               JsonParseError);
  // Wrong schema tag.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-bench-v1",
    "name": "bad",
    "grid": {"scheme": "base", "app": "language"}
  })"),
               JsonParseError);
  // Fleet-only axis in single mode.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "grid": {"scheme": "base", "app": "language",
             "router": "carbon-greedy"}
  })"),
               JsonParseError);
  // Single-only axis in fleet mode.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "mode": "fleet",
    "grid": {"scheme": "base", "app": "language",
             "regions": [["us-west"]], "trace": "flat"}
  })"),
               JsonParseError);
  // Out-of-range value.
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "bad",
    "grid": {"scheme": "base", "app": "language", "gpus": 0}
  })"),
               JsonParseError);
  // Unsafe campaign name (path separator).
  EXPECT_THROW(ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "../escape",
    "grid": {"scheme": "base", "app": "language"}
  })"),
               JsonParseError);
}

TEST(CampaignSpecTest, CheckedInPresetsAllParse) {
  const std::string dir = std::string(CLOVER_SOURCE_DIR) + "/campaigns";
  int specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++specs;
    const CampaignSpec spec = LoadCampaignSpec(entry.path().string());
    EXPECT_FALSE(spec.cells.empty()) << entry.path();
  }
  EXPECT_GE(specs, 9) << "checked-in campaign presets went missing";
}

// ---------------------------------------------------------------------------
// The acceptance gate: fig09_toy through the campaign runner, vs the
// direct harness path, at 1 and 8 threads — all bit-identical.
// ---------------------------------------------------------------------------

TEST(CampaignRunnerTest, Fig09ToyMatchesDirectPathAtOneAndEightThreads) {
  const CampaignSpec spec = LoadCampaignSpec(FigToyPath());
  ASSERT_EQ(spec.cells.size(), 6u);

  CampaignOptions options;
  options.out_dir = ::testing::TempDir() + "/campaign_fig09_t1";
  options.threads = 1;
  const CampaignResult serial = RunCampaign(spec, options);
  options.out_dir = ::testing::TempDir() + "/campaign_fig09_t8";
  options.threads = 8;
  const CampaignResult parallel = RunCampaign(spec, options);

  // Direct path: the same trace and configs the fig09 bench builds
  // (bench_util EvalTrace seeds the trace at seed + 41), run straight
  // through one harness.
  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = 1.0;
  trace_options.seed = 1 + 41;
  const carbon::CarbonTrace trace =
      carbon::GenerateTrace(carbon::TraceProfile::kCisoMarch, trace_options);
  core::ExperimentHarness harness(&models::DefaultZoo());

  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cell = spec.cells[i];
    core::ExperimentConfig config;
    config.app = cell.app;
    config.scheme = cell.scheme;
    config.trace = &trace;
    config.duration_hours = 1.0;
    config.num_gpus = 2;
    config.sizing_gpus = 2;
    config.seed = 1;
    const core::RunReport direct = harness.Run(config);
    EXPECT_TRUE(core::RunReportsBitIdentical(direct, serial.cells[i].report))
        << cell.Name() << ": campaign(1 thread) != direct";
    EXPECT_TRUE(
        core::RunReportsBitIdentical(direct, parallel.cells[i].report))
        << cell.Name() << ": campaign(8 threads) != direct";
    EXPECT_EQ(serial.cells[i].candidates, parallel.cells[i].candidates)
        << cell.Name();
  }

  // The consolidated rows must agree on every simulated metric too.
  ASSERT_EQ(serial.suite.scenarios.size(), parallel.suite.scenarios.size());
  for (std::size_t i = 0; i < serial.suite.scenarios.size(); ++i) {
    const ScenarioTiming& a = serial.suite.scenarios[i];
    const ScenarioTiming& b = parallel.suite.scenarios[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.sim_p50_ms, b.sim_p50_ms);
    EXPECT_EQ(a.sim_p99_ms, b.sim_p99_ms);
    EXPECT_EQ(a.notes, b.notes);
  }
  // One format: the folds carry no wall clock, so they match byte for byte.
  EXPECT_EQ(Slurp(serial.consolidated_path),
            Slurp(parallel.consolidated_path));
}

// ---------------------------------------------------------------------------
// Resume-from-partial-output.
// ---------------------------------------------------------------------------

CampaignSpec TinyCampaign() {
  return ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "tiny",
    "grid": {
      "scheme": ["base", "clover"],
      "app": "classification",
      "trace": ["flat", "step"],
      "gpus": 2,
      "hours": 0.25
    }
  })");
}

TEST(CampaignRunnerTest, ResumesFromPartialOutputAndRerunsDamage) {
  const CampaignSpec spec = TinyCampaign();
  ASSERT_EQ(spec.cells.size(), 4u);
  const std::string out_dir =
      ::testing::TempDir() + "/campaign_resume_test";
  std::filesystem::remove_all(out_dir);

  CampaignOptions options;
  options.out_dir = out_dir;
  options.threads = 2;
  const CampaignResult first = RunCampaign(spec, options);
  EXPECT_EQ(first.resumed_cells, 0);
  ASSERT_TRUE(std::filesystem::exists(first.consolidated_path));

  // Partial output: delete one journal (cell must re-run) and truncate
  // another mid-document (torn write from a killed campaign; must be
  // discarded and re-run, not trusted).
  const std::string deleted_path =
      out_dir + "/runs/" + spec.cells[1].Name() + ".json";
  const std::string torn_path =
      out_dir + "/runs/" + spec.cells[2].Name() + ".json";
  ASSERT_TRUE(std::filesystem::remove(deleted_path));
  {
    std::ifstream in(torn_path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    ASSERT_GT(content.size(), 40u);
    std::ofstream out(torn_path, std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }

  options.resume = true;
  const CampaignResult second = RunCampaign(spec, options);
  EXPECT_EQ(second.resumed_cells, 2);

  // Re-executed cells reproduce the first run bit-identically; resumed
  // cells carry the journaled scalars. Either way, every consolidated row
  // matches the fresh run on all simulated metrics.
  EXPECT_TRUE(core::RunReportsBitIdentical(first.cells[1].report,
                                           second.cells[1].report));
  EXPECT_TRUE(core::RunReportsBitIdentical(first.cells[2].report,
                                           second.cells[2].report));
  ASSERT_EQ(first.suite.scenarios.size(), second.suite.scenarios.size());
  for (std::size_t i = 0; i < first.suite.scenarios.size(); ++i) {
    const ScenarioTiming& a = first.suite.scenarios[i];
    const ScenarioTiming& b = second.suite.scenarios[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.sim_p50_ms, b.sim_p50_ms);
    EXPECT_EQ(a.sim_p99_ms, b.sim_p99_ms);
    EXPECT_EQ(a.notes, b.notes);
  }
  // Resumed rows reuse the journaled wall time exactly.
  EXPECT_EQ(first.cells[0].wall_seconds, second.cells[0].wall_seconds);

  // A fully journaled campaign resumes without executing anything.
  const CampaignResult third = RunCampaign(spec, options);
  EXPECT_EQ(third.resumed_cells, 4);
}

TEST(CampaignRunnerTest, ResumeRejectsJournalsFromAnEditedFaultProfile) {
  // A cell's name encodes its fault *seed* but not the campaign's
  // fault_profile rates; the journal's profile fingerprint must catch the
  // edit, or resume would silently adopt results for a different fault
  // schedule.
  const char* spec_template = R"({
    "schema": "clover-campaign-v1",
    "name": "fault_resume",
    "fault_profile": {"flash_crowds_per_hour": %s,
                      "flash_crowd_multiplier": 2.5},
    "grid": {
      "scheme": "base",
      "app": "classification",
      "trace": "flat",
      "gpus": 2,
      "hours": 0.25,
      "fault_seed": [0, 3]
    }
  })";
  auto spec_with_rate = [&](const char* rate) {
    char buffer[1024];
    std::snprintf(buffer, sizeof(buffer), spec_template, rate);
    return ParseSpecText(buffer);
  };
  const std::string out_dir =
      ::testing::TempDir() + "/campaign_fault_resume_test";
  std::filesystem::remove_all(out_dir);

  CampaignOptions options;
  options.out_dir = out_dir;
  options.threads = 1;
  const CampaignResult first = RunCampaign(spec_with_rate("4.0"), options);
  ASSERT_EQ(first.cells.size(), 2u);

  options.resume = true;
  // Unchanged profile: both cells resume.
  EXPECT_EQ(RunCampaign(spec_with_rate("4.0"), options).resumed_cells, 2);
  // Edited rate: the fault cell (fault_seed 3) must re-run; the fault-free
  // cell's results do not depend on the profile and still resume.
  const CampaignResult edited = RunCampaign(spec_with_rate("8.0"), options);
  EXPECT_EQ(edited.resumed_cells, 1);
  EXPECT_TRUE(edited.cells[0].resumed);
  EXPECT_FALSE(edited.cells[1].resumed);
}

// ---------------------------------------------------------------------------
// Journal robustness: the LoadJournal recovery contract (any
// std::exception while reading a journal means "re-run the cell", never
// "abort the campaign").
// ---------------------------------------------------------------------------

TEST(CampaignJournalTest, TypeMismatchedJournalRerunsTheCellNotTheAbort) {
  // Regression: LoadJournal used to catch only JsonParseError, so a
  // journal that parses fine but decodes to the wrong shape (here:
  // "candidates" as a string) surfaced as a CheckError and killed the
  // whole resume instead of re-running one cell.
  const CampaignSpec spec = TinyCampaign();
  const std::string out_dir =
      ::testing::TempDir() + "/campaign_badtype_test";
  std::filesystem::remove_all(out_dir);

  CampaignOptions options;
  options.out_dir = out_dir;
  options.threads = 1;
  const CampaignResult first = RunCampaign(spec, options);

  const std::string path = out_dir + "/runs/" + spec.cells[0].Name() +
                           ".json";
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const std::string needle = "\"candidates\":";
  const std::size_t at = content.find(needle);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_end = content.find(',', at);
  ASSERT_NE(value_end, std::string::npos);
  content.replace(at, value_end - at, needle + "\"not a number\"");
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }

  EXPECT_EQ(LoadJournal(path, spec.cells[0],
                        FaultProfileFingerprint(spec.fault_profile)),
            std::nullopt);

  options.resume = true;
  const CampaignResult second = RunCampaign(spec, options);
  EXPECT_EQ(second.resumed_cells, 3);
  EXPECT_TRUE(core::RunReportsBitIdentical(first.cells[0].report,
                                           second.cells[0].report));
}

TEST(CampaignJournalTest, JournalPathBeingADirectoryIsDiscarded) {
  // A directory squatting on the journal path throws a filesystem_error
  // (not a JsonParseError) when opened; that too must mean "no journal".
  const CampaignSpec spec = TinyCampaign();
  const std::string out_dir = ::testing::TempDir() + "/campaign_dir_test";
  std::filesystem::remove_all(out_dir);
  const std::string path = JournalPath(out_dir, spec.cells[0]);
  std::filesystem::create_directories(path);
  EXPECT_EQ(LoadJournal(path, spec.cells[0],
                        FaultProfileFingerprint(spec.fault_profile)),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// Triage repro commands: embedded paths are shell-quoted and the triage
// root is carried through, so the printed one-liner works verbatim.
// ---------------------------------------------------------------------------

TEST(CampaignReproTest, ReproCommandQuotesPathsAndCarriesTriageDir) {
  CampaignSpec spec = TinyCampaign();
  spec.source_path = "campaigns/o'brien toy.json";

  ::unsetenv("CLOVER_TRIAGE_DIR");
  const std::string plain = CellReproCommand(spec);
  // POSIX single-quote splice for the apostrophe; spaces stay inside the
  // quotes. Unquoted, this path would split into two argv words and the
  // quote would open an unterminated string.
  EXPECT_NE(plain.find("'campaigns/o'\\''brien toy.json'"),
            std::string::npos)
      << plain;
  EXPECT_NE(plain.find("CLOVER_TRIAGE_DIR='triage/repro'"),
            std::string::npos)
      << plain;

  ::setenv("CLOVER_TRIAGE_DIR", "/tmp/triage out", 1);
  const std::string with_env = CellReproCommand(spec);
  ::unsetenv("CLOVER_TRIAGE_DIR");
  // The repro must inherit the operator's triage root (re-rooted under
  // /repro so the re-run cannot clobber the bundle it came from).
  EXPECT_NE(with_env.find("CLOVER_TRIAGE_DIR='/tmp/triage out/repro'"),
            std::string::npos)
      << with_env;
}

// ---------------------------------------------------------------------------
// Fleet-mode cells.
// ---------------------------------------------------------------------------

TEST(CampaignRunnerTest, FleetCellsRunAndAreThreadCountInvariant) {
  const CampaignSpec spec = ParseSpecText(R"({
    "schema": "clover-campaign-v1",
    "name": "fleet_tiny",
    "mode": "fleet",
    "grid": {
      "scheme": "base",
      "app": "classification",
      "regions": [["us-west", "ap-northeast"]],
      "router": ["static", "carbon-greedy"],
      "gpus": 2,
      "hours": 1
    }
  })");
  ASSERT_EQ(spec.cells.size(), 2u);
  EXPECT_EQ(spec.cells[0].Name(),
            "fleet-base-classification-static-us-west+ap-northeast-g2-h1-s1");

  CampaignOptions options;
  options.out_dir = ::testing::TempDir() + "/campaign_fleet_tiny";
  options.threads = 1;
  const CampaignResult serial = RunCampaign(spec, options);
  options.threads = 2;
  const CampaignResult parallel = RunCampaign(spec, options);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_GT(serial.cells[i].report.completions, 0u);
    EXPECT_TRUE(core::RunReportsBitIdentical(serial.cells[i].report,
                                             parallel.cells[i].report));
  }
}

}  // namespace
}  // namespace clover::exp
