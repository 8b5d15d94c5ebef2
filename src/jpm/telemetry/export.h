// Exporters for the active telemetry session.
//
// Three artifacts, one audience each:
//   * report_json()  — the machine-readable run report: per-run counters,
//     gauges, fixed-bucket histograms (with p50/p95/p99), numeric tables
//     (period timeline, manager decisions), and the retained event stream.
//     Deterministic: contains only simulated time and structural order, so
//     it is byte-identical across JPM_THREADS settings.
//   * trace_json()   — Chrome trace_event format ("chrome://tracing" /
//     https://ui.perfetto.dev): wall-clock spans of the sweep runner's
//     per-policy tasks, trace synthesis, and cluster server pipelines.
//     Wall clock is inherently nondeterministic; never diff this file.
//   * periods_csv()  — the per-period timeline of every run that recorded
//     a "periods" table, one flat CSV for spreadsheets/pandas.
//
// All exporters snapshot under the session mutex but must not race active
// emitters (join parallel work first — `jpm run` and the sweep runner
// already order things this way).
#pragma once

#include <string>

namespace jpm::telemetry {

std::string report_json();  // "{}" (empty report) when no session is active
std::string trace_json();
std::string periods_csv();

// Writes <base>.report.json, <base>.trace.json, and <base>.periods.csv.
// Returns false (with `error` filled when non-null) on I/O failure or when
// no session is active.
bool export_files(const std::string& base_path, std::string* error = nullptr);

}  // namespace jpm::telemetry
