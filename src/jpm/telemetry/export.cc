#include "jpm/telemetry/export.h"

#include <cmath>
#include <fstream>
#include <mutex>

#include "jpm/telemetry/internal.h"
#include "jpm/util/check.h"
#include "jpm/util/json.h"

namespace jpm::telemetry {
namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

// Report values must serialize deterministically and JSON has no Inf/NaN;
// non-finite simulated quantities (a "never" timeout is +inf) become
// strings. Schema: {"type": ["number", "string"]}.
Value num(double d) {
  if (std::isfinite(d)) return Value{d};
  if (std::isnan(d)) return Value{"nan"};
  return Value{d > 0 ? "inf" : "-inf"};
}

Value event_to_json(const Event& e, std::size_t seq) {
  Object o;
  o["seq"] = Value{static_cast<std::uint64_t>(seq)};
  o["category"] = Value{category_name(e.category)};
  o["name"] = Value{e.name};
  o["t_s"] = num(e.sim_time_s);
  Object args;
  for (int i = 0; i < e.arg_count; ++i) {
    args[e.args[i].key] = num(e.args[i].value);
  }
  o["args"] = Value{std::move(args)};
  return Value{std::move(o)};
}

Value histogram_to_json(const BucketHistogram& h) {
  Object o;
  Array bounds, counts;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    bounds.push_back(num(h.upper_bound(i)));
    counts.push_back(Value{h.count_in_bucket(i)});
  }
  o["upper_bounds"] = Value{std::move(bounds)};
  o["counts"] = Value{std::move(counts)};
  o["overflow"] = Value{h.overflow_count()};
  o["count"] = Value{h.count()};
  o["sum"] = num(h.sum());
  o["min"] = num(h.min());
  o["max"] = num(h.max());
  o["mean"] = num(h.mean());
  o["p50"] = num(h.p50());
  o["p95"] = num(h.p95());
  o["p99"] = num(h.p99());
  return Value{std::move(o)};
}

Value run_to_json(const RunRecorder& run) {
  Object o;
  o["name"] = Value{run.name()};
  o["stream"] = Value{static_cast<std::uint64_t>(run.stream())};

  Object counters;
  for (const auto& [name, c] : run.counters()) {
    counters[name] = Value{c.value};
  }
  o["counters"] = Value{std::move(counters)};

  Object gauges;
  for (const auto& [name, g] : run.gauges()) {
    Object gv;
    gv["last"] = num(g.value);
    gv["min"] = num(g.min);
    gv["max"] = num(g.max);
    gv["samples"] = Value{g.samples};
    gauges[name] = Value{std::move(gv)};
  }
  o["gauges"] = Value{std::move(gauges)};

  Object histograms;
  for (const auto& [name, h] : run.histograms()) {
    histograms[name] = histogram_to_json(h);
  }
  o["histograms"] = Value{std::move(histograms)};

  Object tables;
  for (const auto& [name, t] : run.tables()) {
    Object tv;
    Array columns;
    for (const auto& c : t.columns()) columns.push_back(Value{c});
    tv["columns"] = Value{std::move(columns)};
    Array rows;
    for (const auto& r : t.rows()) {
      Array row;
      for (double d : r) row.push_back(num(d));
      rows.push_back(Value{std::move(row)});
    }
    tv["rows"] = Value{std::move(rows)};
    tables[name] = Value{std::move(tv)};
  }
  o["tables"] = Value{std::move(tables)};

  Array events;
  for (std::size_t i = 0; i < run.events().size(); ++i) {
    events.push_back(event_to_json(run.events()[i], i));
  }
  o["events"] = Value{std::move(events)};
  o["dropped_events"] = Value{run.dropped_events()};
  return Value{std::move(o)};
}

}  // namespace

std::string report_json() {
  SessionState* s = session_state_for_export();
  if (s == nullptr) return "{}";
  const std::lock_guard<std::mutex> lock(s->mu);

  Object root;
  root["version"] = Value{1};
  root["generator"] = Value{"jpm-telemetry"};
  root["categories"] = Value{static_cast<std::uint64_t>(s->options.categories)};
  root["ring_capacity"] =
      Value{static_cast<std::uint64_t>(s->options.ring_capacity)};

  // Provenance: when a resolved scenario has been published (jpm::spec),
  // embed it plus its content hash so the report can be re-run from its own
  // spec.
  const std::string scenario = scenario_json();
  if (!scenario.empty()) {
    Value sv;
    std::string parse_error;
    JPM_CHECK_MSG(util::json::parse(scenario, &sv, &parse_error),
                  "published scenario provenance is not valid JSON");
    root["scenario"] = std::move(sv);
    root["scenario_hash"] = Value{scenario_hash_hex()};
  }
  // File-backed runs: the replayed JPMC trace file(s) and their content
  // hashes (";"-joined in sweep-point order when there are several).
  const std::string traces = trace_paths();
  if (!traces.empty()) {
    root["trace_path"] = Value{traces};
    root["trace_hash"] = Value{trace_hashes()};
  }

  Array runs;
  for (const auto& run : s->runs) {
    runs.push_back(run_to_json(*run));
  }
  root["runs"] = Value{std::move(runs)};

  Array orphans;
  for (std::size_t i = 0; i < s->orphans.size(); ++i) {
    orphans.push_back(event_to_json(s->orphans[i], i));
  }
  root["orphan_events"] = Value{std::move(orphans)};

  return util::json::dump(Value{std::move(root)}, 2) + "\n";
}

std::string trace_json() {
  SessionState* s = session_state_for_export();
  if (s == nullptr) return "{}";
  const std::lock_guard<std::mutex> lock(s->mu);

  Array events;
  for (const Span& span : s->spans) {
    Object e;
    e["name"] = Value{span.name};
    e["cat"] = Value{"jpm"};
    e["ph"] = Value{"X"};
    e["ts"] = Value{static_cast<double>(span.start_ns) / 1e3};   // micros
    e["dur"] = Value{static_cast<double>(span.duration_ns) / 1e3};
    e["pid"] = Value{1};
    e["tid"] = Value{static_cast<std::uint64_t>(span.tid)};
    if (!span.label.empty()) {
      Object args;
      args["label"] = Value{span.label};
      e["args"] = Value{std::move(args)};
    }
    events.push_back(Value{std::move(e)});
  }
  Object root;
  root["traceEvents"] = Value{std::move(events)};
  root["displayTimeUnit"] = Value{"ms"};
  return util::json::dump(Value{std::move(root)}, -1) + "\n";
}

std::string periods_csv() {
  SessionState* s = session_state_for_export();
  if (s == nullptr) return "";
  const std::lock_guard<std::mutex> lock(s->mu);

  std::string out;
  std::vector<std::string> header;  // columns the current header line covers
  const auto quote = [](const std::string& v) {
    if (v.find_first_of(",\"\n") == std::string::npos) return v;
    std::string q = "\"";
    for (char c : v) {
      if (c == '"') q += "\"\"";
      else q.push_back(c);
    }
    q.push_back('"');
    return q;
  };
  for (const auto& run : s->runs) {
    const auto it = run->tables().find("periods");
    if (it == run->tables().end()) continue;
    const TableRecorder& t = it->second;
    if (t.columns() != header) {
      header = t.columns();
      out += "run";
      for (const auto& c : header) out += "," + quote(c);
      out += "\n";
    }
    for (const auto& row : t.rows()) {
      out += quote(run->name());
      for (double d : row) {
        out += ",";
        out += std::isfinite(d) ? util::json::format_number(d)
                                : (std::isnan(d) ? "nan" : "inf");
      }
      out += "\n";
    }
  }
  return out;
}

bool export_files(const std::string& base_path, std::string* error) {
  if (session_state_for_export() == nullptr) {
    if (error) *error = "no active telemetry session";
    return false;
  }
  const auto write = [&](const std::string& path,
                         const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
      if (error) *error = "cannot open " + path;
      return false;
    }
    f << content;
    f.close();
    if (!f) {
      if (error) *error = "write failed for " + path;
      return false;
    }
    return true;
  };
  return write(base_path + ".report.json", report_json()) &&
         write(base_path + ".trace.json", trace_json()) &&
         write(base_path + ".periods.csv", periods_csv());
}

}  // namespace jpm::telemetry
