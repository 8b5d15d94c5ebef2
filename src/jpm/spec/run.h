// Executing a Scenario: the driver behind `jpm run`.
//
// A scenario file always stores the full-scale experiment (paper durations).
// The JPM_BENCH_FAST=1 smoke mode is a *transform* of those numbers —
// apply_fast_mode halves the warm-up and quarters the measured window — so
// one checked-in file serves both modes.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/spec/spec.h"

namespace jpm::spec {

// The cell formatters of every report table.
inline std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

inline std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", seconds * 1e3);
  return buf;
}

inline std::string num(double v, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// JPM_BENCH_FAST=1 in the environment.
bool fast_mode();

// The checked-in scenario directory: $JPM_SCENARIO_DIR when set, else the
// build-time default (<source>/scenarios).
std::string scenario_dir();

// "<scenario_dir()>/<name>.json": a checked-in scenario by name.
std::string scenario_path(const std::string& name);

// Rescales the scenario in place to the smoke-run schedule: warm-up is
// halved, the measured window (each workload's duration minus the engine
// warm-up) is quartered (e.g. 1200 s + 3600 s -> 600 s + 900 s).
void apply_fast_mode(Scenario& sc);

// Loads a scenario file and applies the fast transform when JPM_BENCH_FAST
// is set — what every scenario consumer that produces tables should use.
Scenario load_for_run(const std::string& path);

// Measured minutes of the first workload point: (duration - warm-up) / 60.
double measured_minutes(const Scenario& sc);

// The scenario header with "{measured_min}" expanded (default ostream
// formatting of the minutes).
std::string expand_header(const Scenario& sc);

// One cell of a result table.
std::string format_metric(Metric metric, const sim::RunOutcome& outcome);

// Renders one metric across the sweep: rows = roster policies, columns =
// sweep points.
void print_metric_table(const std::string& title,
                        const std::vector<sim::SweepPoint>& points,
                        Metric metric);

// Publishes the resolved scenario + content hash to telemetry provenance
// (telemetry::set_scenario); the run report embeds both.
void publish_provenance(const Scenario& sc);

struct RunOptions {
  // Per-run progress lines (serialized); `jpm run` prints them to stderr.
  std::function<void(const std::string&)> progress;
};

// The fixed summary table of a cluster sweep: one row per (point, policy)
// job, in job order — pipeline/chassis/total energy, balance index, mean
// latency, power cycles, failover count.
void print_cluster_table(const std::vector<cluster::ClusterSweepPoint>& points);

// The full driver: publishes provenance, prints the expanded header (when
// non-empty), and runs and prints the scenario's output.report. The
// scenario must have passed validate_scenario, which checks the shape the
// report reads.
//
// The sweep reports (kSweep, kAccesses) execute the sweep, print every
// `output.tables` metric table (kAccesses adds the memory-access table),
// and return the sweep points for post-processing. A kSweep scenario with a
// cluster section instead runs every roster policy's ClusterEngine at every
// workload point (cluster metrics are absolute, so no baseline) and prints
// the fixed cluster summary table; `output.tables` are ignored. Every other
// report prints its own tables (spec/report.cc), and the return value is
// empty.
std::vector<sim::SweepPoint> run_scenario(const Scenario& sc,
                                          const RunOptions& options = {});

}  // namespace jpm::spec
