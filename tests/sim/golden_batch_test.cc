// Scenario-level golden differential for the batched event path: the stdout
// tables and telemetry report of golden scenarios must be byte-identical
// across thread count (JPM_THREADS 1 / 8). The batch walk re-orders
// prefetches and hoists counters but may never change a single reported
// byte; this is the end-to-end check over the engine's batched
// resolve+descend loop and the counter tree under it, across the joint
// method's knob overrides (ablation_joint), write traffic and flush ticks
// (ext_writes), multi-speed disks (ext_drpm), resize units from 16 MB to
// 1 GB (table5_bank), and the cluster's per-job telemetry streams
// (ext_cluster). See tests/sim/batch_invariance_test.cc for the
// RunMetrics-level chunking check across the full policy roster.
#include <gtest/gtest.h>

#ifdef JPM_SCENARIOS_DIR

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"

namespace jpm::sim {
namespace {

class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVar() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

struct ScenarioRun {
  std::string stdout_text;
  std::string report;
};

ScenarioRun run_scenario_capture(const spec::Scenario& sc) {
  telemetry::clear_traces();
  telemetry::start({});
  std::ostringstream captured;
  std::streambuf* old = std::cout.rdbuf(captured.rdbuf());
  spec::run_scenario(sc, {});
  std::cout.rdbuf(old);
  ScenarioRun out{captured.str(), telemetry::report_json()};
  telemetry::stop();
  telemetry::clear_scenario();
  telemetry::clear_traces();
  return out;
}

TEST(GoldenBatchTest, ScenariosAreByteIdenticalAcrossBatchThreadsAndSched) {
  const EnvVar fast("JPM_BENCH_FAST", "1");
  const char* names[] = {"ablation_joint", "ext_writes", "ext_drpm",
                         "table5_bank", "ext_cluster"};
  for (const char* name : names) {
    SCOPED_TRACE(name);
    const spec::Scenario sc = spec::load_for_run(
        std::string(JPM_SCENARIOS_DIR) + "/" + name + ".json");

    // Baseline: serial.
    ScenarioRun base;
    {
      const EnvVar serial("JPM_THREADS", "1");
      base = run_scenario_capture(sc);
    }
    // The header line and at least one rendered table: a report that
    // prints only its header would compare equal vacuously.
    const auto first_newline = base.stdout_text.find('\n');
    ASSERT_NE(first_newline, std::string::npos);
    EXPECT_NE(base.stdout_text.find("\n+-", first_newline), std::string::npos)
        << base.stdout_text;

    const EnvVar wide("JPM_THREADS", "8");
    const ScenarioRun got = run_scenario_capture(sc);
    EXPECT_EQ(got.stdout_text, base.stdout_text);
    EXPECT_EQ(got.report, base.report);
  }
}

}  // namespace
}  // namespace jpm::sim

#endif  // JPM_SCENARIOS_DIR
