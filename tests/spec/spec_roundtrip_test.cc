// Round-trip contract of jpm::spec: every config struct serializes to
// deterministic JSON, parses back to the same struct, and
// serialize(parse(serialize(x))) == serialize(x) byte for byte. The goldens
// here are hand-written JSON strings so a formatting or field-order change
// cannot slip through as "still round-trips".
#include <gtest/gtest.h>

#include <string>

#include "jpm/sim/policies.h"
#include "jpm/spec/spec.h"
#include "jpm/util/json.h"

namespace jpm::spec {
namespace {

using util::json::Value;

std::string dump2(const Value& v) { return util::json::dump(v, 2); }

Value parse(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(util::json::parse(text, &v, &error)) << error;
  return v;
}

// ---- byte-identical goldens per struct ------------------------------------
// Field order is bind order; numbers are shortest-round-trip. These literals
// are the format documentation for each section of a scenario file.

TEST(SpecGoldenTest, DiskParamsDefaults) {
  EXPECT_EQ(dump2(to_json(disk::DiskParams{})),
            "{\n"
            "  \"active_w\": 12.5,\n"
            "  \"idle_w\": 7.5,\n"
            "  \"standby_w\": 0.9,\n"
            "  \"transition_j\": 77.5,\n"
            "  \"spin_up_s\": 10,\n"
            "  \"avg_seek_s\": 0.008,\n"
            "  \"avg_rotation_s\": 0.00416,\n"
            "  \"media_rate_bytes_per_s\": 58000000\n"
            "}");
}

TEST(SpecGoldenTest, RdramParamsDefaults) {
  EXPECT_EQ(dump2(to_json(mem::RdramParams{})),
            "{\n"
            "  \"bank_bytes\": 16777216,\n"
            "  \"nap_mw_per_mb\": 0.656,\n"
            "  \"dynamic_mj_per_mb\": 0.809,\n"
            "  \"powerdown_fraction\": 0.3,\n"
            "  \"powerdown_timeout_s\": 0.000129,\n"
            "  \"disable_timeout_s\": 732\n"
            "}");
}

TEST(SpecGoldenTest, PolicySpecJoint) {
  EXPECT_EQ(dump2(to_json(sim::joint_policy())),
            "{\n"
            "  \"name\": \"Joint\",\n"
            "  \"disk\": \"joint\",\n"
            "  \"mem\": \"joint\",\n"
            "  \"fixed_bytes\": 0,\n"
            "  \"multi_speed\": false\n"
            "}");
}

TEST(SpecGoldenTest, WorkloadDefaults) {
  EXPECT_EQ(dump2(to_json(workload::SynthesizerConfig{})),
            "{\n"
            "  \"dataset_bytes\": 17179869184,\n"
            "  \"byte_rate\": 100000000,\n"
            "  \"popularity\": 0.1,\n"
            "  \"duration_s\": 3600,\n"
            "  \"page_bytes\": 262144,\n"
            "  \"file_scale\": 16,\n"
            "  \"rate_modulation\": 0.2,\n"
            "  \"modulation_period_s\": 1800,\n"
            "  \"intra_request_spacing_s\": 0.002,\n"
            "  \"temporal_locality\": 0,\n"
            "  \"write_fraction\": 0,\n"
            "  \"locality_window\": 8192,\n"
            "  \"seed\": 1\n"
            "}");
}

// ---- parse(serialize(x)) == x, proven as byte-stable serialization --------

template <typename T, typename FromFn>
void expect_stable(const T& value, FromFn from_json_fn) {
  const std::string once = dump2(to_json(value));
  const T reparsed = from_json_fn(parse(once), "$");
  EXPECT_EQ(dump2(to_json(reparsed)), once);
}

TEST(SpecRoundTripTest, EveryStructIsByteStable) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = gib(3);
  w.byte_rate = 2e6;
  w.temporal_locality = 0.85;
  w.write_fraction = 0.125;
  w.seed = 99;
  expect_stable(w, workload_from_json);

  mem::RdramParams m;
  m.nap_mw_per_mb = 1.25;
  expect_stable(m, rdram_from_json);

  disk::DiskParams d;
  d.spin_up_s = 6.0;
  d.transition_j = 60.5;
  expect_stable(d, disk_from_json);

  core::JointConfig j;
  j.period_s = 600.0;
  j.alpha_estimator = core::AlphaEstimator::kMle;
  j.timeout_rule = core::TimeoutRule::kExponential;
  expect_stable(j, joint_from_json);

  fault::FaultPlan f;
  f.enabled = true;
  f.p_spinup_fail = 0.05;
  f.guard.enabled = true;
  expect_stable(f, fault_from_json);

  sim::EngineConfig e;
  e.disk_count = 4;
  e.warm_up_s = 1200.0;
  e.fault.enabled = true;
  expect_stable(e, engine_from_json);

  cluster::ClusterConfig c;
  c.server_count = 4;
  c.distribution = cluster::DistributionPolicy::kPartitioned;
  c.chassis_on_w = 150.0;
  expect_stable(c, cluster_from_json);
}

TEST(SpecRoundTripTest, OmittedKeysKeepDefaults) {
  // An empty object is a valid struct body: every field falls back to the
  // C++ default, so serializing the result equals serializing the default.
  const auto d = disk_from_json(parse("{}"), "$");
  EXPECT_EQ(dump2(to_json(d)), dump2(to_json(disk::DiskParams{})));

  const auto e = engine_from_json(parse(R"({"disk_count": 2})"), "$");
  EXPECT_EQ(e.disk_count, 2u);
  EXPECT_EQ(e.joint.period_s, sim::EngineConfig{}.joint.period_s);
}

TEST(SpecRoundTripTest, RosterPresetResolvesToPaperRoster) {
  const auto preset = roster_from_json(
      parse(R"({"preset": "paper", "fm_gib": [8, 128]})"), "$");
  const auto direct = sim::paper_policies(128 * kGiB, {8, 128});
  EXPECT_EQ(dump2(to_json(preset)), dump2(to_json(direct)));
}

TEST(SpecRoundTripTest, WorkloadSweepFormResolvesToExplicitPoints) {
  const auto points = workloads_from_json(
      parse(R"({"base": {"duration_s": 100, "seed": 7},
                "points": [{"label": "a"},
                           {"label": "b", "byte_rate": 5000000}]})"),
      "$");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "a");
  EXPECT_EQ(points[0].workload.duration_s, 100.0);
  EXPECT_EQ(points[0].workload.seed, 7u);
  EXPECT_EQ(points[1].workload.byte_rate, 5e6);
  EXPECT_EQ(points[1].workload.duration_s, 100.0);

  // Serialization always emits the resolved explicit array, which parses
  // back through the array branch to identical bytes.
  const std::string resolved = dump2(to_json(points));
  EXPECT_EQ(dump2(to_json(workloads_from_json(parse(resolved), "$"))),
            resolved);
}

TEST(SpecRoundTripTest, GridFormExpandsFirstAxisOutermost) {
  const auto points = workloads_from_json(
      parse(R"({"base": {"duration_s": 100},
                "grid": {"byte_rate": [2000000, 4000000],
                         "seed": [1, 2, 3]}})"),
      "$.workloads");
  ASSERT_EQ(points.size(), 6u);

  // Labels are the grid coordinates; the first declared axis varies slowest.
  EXPECT_EQ(points[0].label, "byte_rate=2000000,seed=1");
  EXPECT_EQ(points[1].label, "byte_rate=2000000,seed=2");
  EXPECT_EQ(points[2].label, "byte_rate=2000000,seed=3");
  EXPECT_EQ(points[3].label, "byte_rate=4000000,seed=1");
  EXPECT_EQ(points[5].label, "byte_rate=4000000,seed=3");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(points[i].workload.byte_rate, i < 3 ? 2e6 : 4e6);
    EXPECT_EQ(points[i].workload.seed, i % 3 + 1);
    EXPECT_EQ(points[i].workload.duration_s, 100.0);  // base carries through
  }

  // Axis provenance rides on every point, in declaration order.
  ASSERT_EQ(points[4].axes.size(), 2u);
  EXPECT_EQ(points[4].axes[0],
            (std::pair<std::string, double>{"byte_rate", 4e6}));
  EXPECT_EQ(points[4].axes[1], (std::pair<std::string, double>{"seed", 2.0}));
}

TEST(SpecRoundTripTest, GridScenarioSerializesBackToTheGridForm) {
  const Scenario sc = parse_scenario(
      R"({"name": "grid",
          "workloads": {"base": {"duration_s": 100},
                        "grid": {"seed": [1, 2, 3]}}})");
  ASSERT_TRUE(sc.grid.has_value());
  EXPECT_EQ(sc.workloads.size(), 3u);

  // Serialization re-emits the compact grid form (not the 3-point
  // expansion) and stays canonical through another round trip.
  const std::string once = serialize_scenario(sc);
  EXPECT_NE(once.find("\"grid\""), std::string::npos);
  EXPECT_EQ(once.find("\"points\""), std::string::npos);
  EXPECT_EQ(serialize_scenario(parse_scenario(once)), once);
}

TEST(SpecRoundTripTest, TraceSourceRoundTripsInBothForms) {
  // Array form: the "trace" source names a JPMC file to replay.
  const auto points = workloads_from_json(
      parse(R"([{"label": "a", "workload": {},
                 "trace": {"path": "big.jpmc"}},
                {"label": "b", "workload": {}}])"),
      "$");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].trace_path, "big.jpmc");
  EXPECT_EQ(points[1].trace_path, "");

  const std::string resolved = dump2(to_json(points));
  EXPECT_NE(resolved.find("\"trace\""), std::string::npos);
  EXPECT_NE(resolved.find("\"path\": \"big.jpmc\""), std::string::npos);
  EXPECT_EQ(dump2(to_json(workloads_from_json(parse(resolved), "$"))),
            resolved);

  // Sweep-point form takes the same source key per point.
  const auto sweep = workloads_from_json(
      parse(R"({"base": {"seed": 3},
                "points": [{"label": "a", "trace": {"path": "p0.jpmc"}}]})"),
      "$");
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0].trace_path, "p0.jpmc");
  EXPECT_EQ(sweep[0].workload.seed, 3u);
}

TEST(SpecRoundTripTest, ScenarioIsByteStableIncludingCluster) {
  Scenario sc;
  sc.name = "roundtrip";
  sc.description = "unit test";
  sc.workloads.push_back({"16GB", workload::SynthesizerConfig{}, "", {}});
  sc.roster = {sim::always_on_policy(), sim::joint_policy()};
  sc.engine.warm_up_s = 600.0;
  cluster::ClusterConfig cl;
  cl.server_count = 4;
  sc.cluster = cl;
  sc.output.report = Report::kDistribution;
  sc.output.header = "round-trip scenario";
  sc.output.tables.push_back({"total energy", Metric::kTotalPct});

  const std::string once = serialize_scenario(sc);
  const Scenario parsed = parse_scenario(once);
  EXPECT_EQ(parsed.output.report, Report::kDistribution);
  const std::string twice = serialize_scenario(parsed);
  EXPECT_EQ(twice, once);
  EXPECT_NE(once.find("\"cluster\""), std::string::npos);
  EXPECT_NE(once.find("\"report\": \"distribution\""), std::string::npos);
  EXPECT_EQ(once.back(), '\n');
}

TEST(SpecRoundTripTest, HashIsFnv1aOfSerialization) {
  // FNV-1a 64 offset basis: the hash of the empty string.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);

  Scenario sc;
  sc.name = "hash";
  char expected[17];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(serialize_scenario(sc))));
  EXPECT_EQ(scenario_hash(sc), expected);
}

TEST(SpecRoundTripTest, HashChangesIffResolvedScenarioChanges) {
  Scenario sc;
  sc.name = "hash";
  sc.workloads.push_back({"w", workload::SynthesizerConfig{}, "", {}});
  const std::string h0 = scenario_hash(sc);

  Scenario same = sc;
  EXPECT_EQ(scenario_hash(same), h0);  // copies hash identically

  Scenario changed = sc;
  changed.workloads[0].workload.seed += 1;
  EXPECT_NE(scenario_hash(changed), h0);

  changed.workloads[0].workload.seed -= 1;
  EXPECT_EQ(scenario_hash(changed), h0);  // reverting restores the hash
}

}  // namespace
}  // namespace jpm::spec
