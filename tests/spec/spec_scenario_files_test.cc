// The checked-in scenarios/ corpus: every file must parse, pass semantic
// validation, and be canonical (byte-equal to the serialization of its own
// parse) so the goldens double as format documentation and `jpm print` is a
// no-op on them. Also covers `jpm run`'s fast-mode transform and header
// expansion.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"

namespace jpm::spec {
namespace {

// One scenario per paper table/figure and extension study (18), the two
// examples' parameter files, the streaming daemon demo and the fleet-scale
// grid sweep (22) — a new report or CLI demo adds its scenario here.
const std::set<std::string> kScenarioNames = {
    "ablation_joint",  "ext_cluster",     "ext_devices",   "ext_drpm",
    "ext_multidisk",   "ext_pblru",       "ext_writes",    "faults",
    "fig5_pareto",     "fig7_dataset",    "fig8_popularity", "fig8_rate",
    "fig9_timeline",   "fleet_sweep",     "models",        "policy_faceoff",
    "quickstart",      "serve_demo",      "table3_accesses", "table4_period",
    "table5_bank",     "timeout_policies",
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ScenarioFilesTest, DirectoryMatchesTheHarnessList) {
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenario_dir())) {
    if (entry.path().extension() == ".json") {
      on_disk.insert(entry.path().stem().string());
    }
  }
  EXPECT_EQ(on_disk, kScenarioNames);
}

TEST(ScenarioFilesTest, EveryFileParsesValidatesAndIsCanonical) {
  for (const auto& name : kScenarioNames) {
    SCOPED_TRACE(name);
    const std::string path = scenario_path(name);
    const std::string text = read_file(path);

    Scenario sc;
    ASSERT_NO_THROW(sc = load_scenario_file(path));
    EXPECT_EQ(sc.name, name) << "scenario name must match the file name";
    EXPECT_NO_THROW(validate_scenario(sc));
    EXPECT_EQ(serialize_scenario(sc), text)
        << path << " is not canonical; regenerate with `jpm print`";
  }
}

TEST(ScenarioFilesTest, HashesAreDistinctAcrossTheCorpus) {
  std::set<std::string> hashes;
  for (const auto& name : kScenarioNames) {
    hashes.insert(scenario_hash(load_scenario_file(scenario_path(name))));
  }
  EXPECT_EQ(hashes.size(), kScenarioNames.size());
}

TEST(ScenarioFilesTest, FastModeTransformMatchesHistoricalNumbers) {
  // The historical smoke schedule: 1200 s warm-up + 60 min
  // measured becomes 600 s + 15 min. apply_fast_mode halves the warm-up and
  // quarters the measured window of every workload point.
  Scenario sc = load_scenario_file(scenario_path("fig7_dataset"));
  ASSERT_FALSE(sc.workloads.empty());
  EXPECT_EQ(sc.engine.warm_up_s, 1200.0);
  EXPECT_EQ(sc.workloads.front().workload.duration_s, 4800.0);
  EXPECT_EQ(measured_minutes(sc), 60.0);

  apply_fast_mode(sc);
  EXPECT_EQ(sc.engine.warm_up_s, 600.0);
  for (const auto& point : sc.workloads) {
    EXPECT_EQ(point.workload.duration_s, 1500.0);
  }
  EXPECT_EQ(measured_minutes(sc), 15.0);
}

TEST(ScenarioFilesTest, FastModeDoesNotChangeAnythingElse) {
  Scenario full = load_scenario_file(scenario_path("fig8_rate"));
  Scenario fast = full;
  apply_fast_mode(fast);
  // Restoring the schedule restores byte-identical serialization: the
  // transform touches only warm_up_s and the durations.
  fast.engine.warm_up_s = full.engine.warm_up_s;
  for (std::size_t i = 0; i < fast.workloads.size(); ++i) {
    fast.workloads[i].workload.duration_s =
        full.workloads[i].workload.duration_s;
  }
  EXPECT_EQ(serialize_scenario(fast), serialize_scenario(full));
}

TEST(ScenarioFilesTest, HeaderTokenExpandsToMeasuredMinutes) {
  Scenario sc = load_scenario_file(scenario_path("fig7_dataset"));
  EXPECT_NE(sc.output.header.find("{measured_min}"), std::string::npos);
  std::string expanded = expand_header(sc);
  EXPECT_EQ(expanded.find("{measured_min}"), std::string::npos);
  EXPECT_NE(expanded.find("60 min"), std::string::npos) << expanded;

  apply_fast_mode(sc);
  expanded = expand_header(sc);
  EXPECT_NE(expanded.find("15 min"), std::string::npos) << expanded;

  // Headers without the token pass through verbatim.
  sc.output.header = "plain header";
  EXPECT_EQ(expand_header(sc), "plain header");
}

}  // namespace
}  // namespace jpm::spec
