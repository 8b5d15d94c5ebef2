// jpmbench — the in-process half of the perfbench benchmark (see README.md).
//
// run.py builds this binary next to the `jpm` CLI and calls it once per
// measurement. Each mode runs one workload through the jpm libraries and
// writes what it measured, as one JSON object, to --out:
//
//   jpmbench sweep        fig7_dataset through spec::run_scenario, the
//                         `jpm run` driver (JPM_THREADS picks the fan-out).
//   jpmbench replay       writes JPMC traces of a fig7 point with writes,
//                         one per derived seed, then replays them with
//                         sim::replay_file (Joint).
//   jpmbench serve-setup  derives the serve scenario, encodes its JSONL wire
//                         stream and computes the reference results that
//                         `jpm serve` must reproduce.
//   jpmbench serve-run    runs `jpm serve` (--jpm) on that stream, piped to
//                         its stdin, again and again for --seconds.
//   jpmbench serve-trace  the traced split of serve: decode, offer and pump
//                         in-process over the same stream.
//
// With --trace, sweep and replay give the per-layer split instead of the
// timed loop: the workload runs once on its timed path and then as a serial
// pass that calls each layer's public functions separately, timing each
// call from here; serve-trace does the same for serve. No layer of src/ is
// instrumented; the untraced copy of the same pass (clock never read) gives
// the tracing overhead.
//
// Options: --root <repo> --work <dir> --out <file> [--seed N] [--seconds S]
//          [--trace] [--tiny] [--reference] [--expect <digest>]
//          [--jpm <jpm binary>]
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "jpm/sim/engine.h"
#include "jpm/sim/file_replay.h"
#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/stream/stream_engine.h"
#include "jpm/stream/wire.h"
#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/check.h"
#include "jpm/util/hash.h"
#include "jpm/util/json.h"
#include "jpm/util/parallel.h"
#include "jpm/workload/synthesizer.h"

namespace {

namespace json = jpm::util::json;
namespace sim = jpm::sim;
namespace spec = jpm::spec;
namespace stream = jpm::stream;
namespace tracefile = jpm::tracefile;
namespace workload = jpm::workload;

using Clock = std::chrono::steady_clock;

// ---- workload sizes ---------------------------------------------------------

// Set-up repetitions per run; setup_s is their median. The sweep sets up
// once before the timed phase and again after every timed rep: its scenario
// load, a few microseconds, so its samples span the run's changing host
// load. The replay's set-up is writing its trace files, one sample each.
constexpr int kSweepLoadsPerRep = 5;
constexpr int kServeSetupReps = 5;
// Untraced/traced pass pairs of a traced run; a sweep pass is long enough
// to need only one, a replay pass (all its traces) two.
constexpr int kTracePasses = 5;
constexpr int kSweepTracePasses = 1;
constexpr int kReplayTracePasses = 2;
// The replayed fig7 point and its write share.
constexpr const char* kReplayPoint = "64GB";
constexpr double kReplayWriteFraction = 0.2;
// Traces one replay run writes and replays, each from its own seed: trace i
// of --seed s uses workload seed s * kReplayTraces + i. Joint's energy on a
// single 64GB trace moves 11% (stdev/mean) from seed to seed, so a run
// reports the mean over these traces.
constexpr std::uint64_t kReplayTraces = 16;
// The served stream is serve_demo's workload (shortened to this duration
// for --tiny), fed to a fixed-memory 2T policy of this size.
constexpr double kServeTinyDurationS = 120.0;
constexpr std::uint64_t kServeFixedBytes = std::uint64_t{1} << 30;
// The idle wait of StreamEngine::run_until_closed, which `jpm serve`'s
// consumer runs; the traced serve pass's own consumer loop copies it.
constexpr auto kPumpIdleWait = std::chrono::microseconds(200);
// Longest one `jpm serve` invocation may run before it is killed.
constexpr int kServeTimeoutS = 150;
// Events generated per synthesis batch in the traced replay pass.
constexpr std::size_t kSynthBatch = 65536;

// ---- small helpers ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds since `mark`, moving `mark` to now: one clock read per phase.
double lap(Clock::time_point& mark) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Runs f `reps` times, appending each wall time to `times`.
template <class F>
void time_reps(int reps, std::vector<double>& times, F&& f) {
  for (int k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    f();
    times.push_back(seconds_since(t0));
  }
}

json::Value numbers(const std::vector<double>& v) {
  json::Array a;
  for (double x : v) a.emplace_back(x);
  return json::Value{std::move(a)};
}

// Spreads a single-threaded workload's repetitions over every CPU this
// process may use, one CPU per repetition in turn. On a shared host a
// core's speed can change by 1.6x from one second to the next while other
// cores stay fast, so a median over all cores moves far less than one over
// whichever core the scheduler happened to pick. Pins the calling thread;
// the destructor restores its CPU set.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof allowed_, &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof allowed_, &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves the calling thread to the next CPU.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Options {
  std::string mode;
  std::string root = ".";
  std::string work = ".";
  std::string out;
  std::optional<std::uint64_t> seed;  // unset = the scenario's own seed
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool reference = false;
};

// ---- digests of simulated results --------------------------------------------

// FNV-1a 64 over the raw little-endian bytes of each field, so run.py can
// recompute the serve digest from the JSON report bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) { h_.update(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::string hex() const { return jpm::util::hex16(h_.digest()); }

 private:
  jpm::util::Fnv1a64 h_;
};

std::uint64_t delayed_requests(const sim::RunMetrics& m) {
  std::uint64_t n = 0;
  for (const auto& p : m.periods) n += p.delayed_requests;
  return n;
}

// Accesses the engine processed over the whole run, warm-up included.
std::uint64_t events_processed(const sim::RunMetrics& m) {
  std::uint64_t n = 0;
  for (const auto& p : m.periods) n += p.cache_accesses;
  return n;
}

// The simulated results one run contributes to a workload's digest.
void add_run(Digest& d, const sim::RunMetrics& m) {
  d.add(m.mem_energy.static_j);
  d.add(m.mem_energy.dynamic_j);
  d.add(m.disk_energy.standby_base_j);
  d.add(m.disk_energy.static_j);
  d.add(m.disk_energy.transition_j);
  d.add(m.disk_energy.dynamic_j);
  d.add(m.cache_accesses);
  d.add(m.disk_accesses);
  d.add(m.disk_writes);
  d.add(m.long_latency_count);
  d.add(delayed_requests(m));
  d.add(static_cast<std::uint64_t>(m.periods.size()));
}

// The serve digest covers these fields of `jpm serve`'s report "metrics"
// object, in this order; counts are digested as integers.
struct ServeField {
  const char* key;
  bool count;
};
constexpr ServeField kServeFields[] = {
    {"duration_s", false},     {"memory_j", false},
    {"disk_j", false},         {"cache_accesses", true},
    {"disk_accesses", true},   {"disk_shutdowns", true},
    {"spin_ups", true},        {"periods", true},
    {"mean_latency_ms", false},
};

// The digest's fields of a run, computed as `jpm serve` reports them.
json::Object serve_report_metrics(const sim::RunMetrics& m) {
  json::Object o;
  o["duration_s"] = json::Value{m.duration_s};
  o["memory_j"] = json::Value{m.mem_energy.total_j()};
  o["disk_j"] = json::Value{m.disk_energy.total_j()};
  o["mean_latency_ms"] = json::Value{m.mean_latency_s() * 1e3};
  o["cache_accesses"] = json::Value{m.cache_accesses};
  o["disk_accesses"] = json::Value{m.disk_accesses};
  o["disk_shutdowns"] = json::Value{m.disk_shutdowns};
  o["spin_ups"] = json::Value{m.spin_ups};
  o["periods"] = json::Value{static_cast<std::uint64_t>(m.periods.size())};
  return o;
}

double number_field(const json::Object& o, const char* key) {
  const json::Value* v = o.find(key);
  JPM_CHECK_MSG(v != nullptr && v->is_number(),
                "serve report lacks numeric \"" << key << "\"");
  return v->as_number();
}

// Digest of a serve report's metrics; the report prints shortest
// round-trip numbers, so a parsed report digests like the run itself.
std::string serve_digest(const json::Object& metrics) {
  Digest d;
  for (const ServeField& f : kServeFields) {
    const double v = number_field(metrics, f.key);
    if (f.count) {
      d.add(static_cast<std::uint64_t>(v));
    } else {
      d.add(v);
    }
  }
  return d.hex();
}

// The workload's end-to-end simulated metrics, for one policy run against
// its always-on run on the same events.
json::Value sim_metrics(double energy_pct, double energy_kj) {
  json::Object o;
  o["sim_energy_pct"] = json::Value{energy_pct};
  o["sim_energy_kj"] = json::Value{energy_kj};
  return json::Value{std::move(o)};
}

// ---- per-layer ledger -----------------------------------------------------------

// Host time and work counts per layer for one pass. With the ledger off the
// same calls run without reading the clock.
class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}

  // Runs f, adding its wall time to `key`; returns that time (0 when off).
  template <class F>
  double time(const std::string& key, F&& f) {
    if (!on_) {
      f();
      return 0.0;
    }
    const auto t0 = Clock::now();
    f();
    const double dt = seconds_since(t0);
    values_[key] += dt;
    return dt;
  }
  void add(const std::string& key, double v) { values_[key] += v; }
  void boundary_sample(double s) {
    if (on_) boundary_ms_.push_back(s * 1e3);
  }

  // The recorded values plus the rates and ratios derived from them.
  std::map<std::string, double> values() const {
    std::map<std::string, double> v = values_;
    const auto rate = [&](const std::string& out, const std::string& work,
                          const std::string& time) {
      const auto w = v.find(work);
      const auto t = v.find(time);
      if (w != v.end() && t != v.end() && t->second > 0.0) {
        v[out] = w->second / t->second;
      }
    };
    rate("workload.synth_events_per_s", "workload.synth_events",
         "workload.synth_s");
    for (const char* cls : {"joint", "fixed", "bank"}) {
      rate(std::string("sim.replay_events_per_s.") + cls,
           std::string("sim.replay_events.") + cls,
           std::string("sim.replay_s.") + cls);
    }
    rate("tracefile.decode_events_per_s", "tracefile.decode_events",
         "tracefile.decode_s");
    rate("sim.push_events_per_s", "sim.push_events", "sim.push_s");
    rate("stream.decode_events_per_s", "stream.decode_events",
         "stream.decode_s");
    rate("stream.events_per_pump", "stream.pump_events", "stream.pumps");
    if (!boundary_ms_.empty()) v["sim.boundary_ms_p50"] = median(boundary_ms_);
    return v;
  }

 private:
  bool on_;
  std::map<std::string, double> values_;
  std::vector<double> boundary_ms_;
};

// One serial pass of a workload: its wall time, results digest and ledger.
struct Pass {
  double total_s = 0.0;
  std::string digest;
  std::map<std::string, double> layers;
};

// Runs `pairs` untraced/traced pass pairs, alternating which goes first, and
// reports the traced ledger's per-key median, both totals' medians and the
// tracing overhead. Every pass must reproduce `expected_digest`.
template <class PassFn>
void traced_passes(int pairs, PassFn&& run_pass,
                   const std::string& expected_digest, json::Object& out) {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> layers;
  bool digests_agree = true;
  for (int k = 0; k < pairs; ++k) {
    for (int j = 0; j < 2; ++j) {
      const bool traced = (k + j) % 2 == 1;
      const Pass p = run_pass(traced);
      digests_agree = digests_agree && p.digest == expected_digest;
      (traced ? traced_s : untraced_s).push_back(p.total_s);
      if (traced) {
        for (const auto& [key, value] : p.layers) layers[key].push_back(value);
      }
    }
  }
  json::Object medians;
  for (const auto& [key, values] : layers) {
    medians[key] = json::Value{median(values)};
  }
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  medians["trace_overhead_pct"] =
      json::Value{untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0};
  out["layers"] = json::Value{std::move(medians)};
  out["untraced_total_s"] = json::Value{untraced};
  out["traced_total_s"] = json::Value{traced};
  out["trace_digests_agree"] = json::Value{digests_agree};
}

// ---- the engine split used by the traced passes ----------------------------------

// Feeds events to a LiveSource engine, cutting at each period boundary so
// the hot loop (push_chunk) and the boundary (advance_to: harvest, idle
// sweep, candidate search, resize writeback) are timed apart. Results are
// identical to pushing the events in one chunk.
void push_split(sim::Engine& engine, const double* times,
                const std::uint64_t* pages, const std::uint8_t* flags,
                std::size_t n, Ledger& ledger) {
  std::size_t i = 0;
  while (i < n) {
    const double boundary = engine.next_boundary_s();
    const std::size_t j = static_cast<std::size_t>(
        std::lower_bound(times + i, times + n, boundary) - times);
    if (j > i) {
      ledger.time("sim.push_s", [&] {
        engine.push_chunk(times + i, pages + i, flags + i, j - i);
      });
      ledger.add("sim.push_events", static_cast<double>(j - i));
      i = j;
    }
    if (i < n) {
      ledger.boundary_sample(ledger.time(
          "sim.boundary_s", [&] { engine.advance_to(boundary); }));
      ledger.add("sim.boundaries", 1.0);
    }
  }
}

std::optional<sim::Engine> begin_engine(const sim::LiveSource& source,
                                        const sim::PolicySpec& policy,
                                        const sim::EngineConfig& config,
                                        Ledger& ledger) {
  std::optional<sim::Engine> engine;
  ledger.time("sim.begin_s", [&] {
    engine.emplace(source, policy, config);
    engine->advance_to(0.0);
  });
  return engine;
}

sim::RunMetrics finish_engine(sim::Engine& engine, double end_s,
                              Ledger& ledger) {
  sim::RunMetrics m;
  ledger.time("sim.finish_s", [&] { m = engine.finish(end_s); });
  ledger.add("sim.disk_writes", static_cast<double>(m.disk_writes));
  return m;
}

// In-memory trace replayed through the split LiveSource path.
sim::RunMetrics replay_split(const workload::Trace& trace,
                             const sim::PolicySpec& policy,
                             const sim::EngineConfig& config, Ledger& ledger) {
  sim::LiveSource source;
  source.page_bytes = trace.page_bytes;
  source.total_pages = trace.total_pages;
  source.duration_hint_s = trace.duration_s;
  auto engine = begin_engine(source, policy, config, ledger);
  push_split(*engine, trace.times.data(), trace.pages.data(),
             trace.flags.data(), trace.size(), ledger);
  return finish_engine(*engine, trace.duration_s, ledger);
}

const char* policy_class(const sim::PolicySpec& p) {
  if (p.is_joint()) return "joint";
  return p.mem == sim::MemPolicyKind::kFixed ? "fixed" : "bank";
}

std::size_t joint_index(const std::vector<sim::PolicySpec>& roster) {
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (roster[i].is_joint()) return i;
  }
  JPM_CHECK_MSG(false, "roster has no Joint policy");
  return 0;
}

const sim::PolicySpec& roster_entry(const spec::Scenario& sc,
                                    sim::DiskPolicyKind disk,
                                    sim::MemPolicyKind mem) {
  for (const auto& p : sc.roster) {
    if (p.disk == disk && p.mem == mem && !p.multi_speed) return p;
  }
  JPM_CHECK_MSG(false, sc.name << ": roster lacks the expected policy");
  return sc.roster.front();
}

// ---- sweep_fig7 ----------------------------------------------------------------------

spec::Scenario load_sweep(const Options& o) {
  spec::Scenario sc =
      spec::load_scenario_file(o.root + "/scenarios/fig7_dataset.json");
  spec::validate_scenario(sc);
  spec::apply_fast_mode(sc);
  if (o.tiny) sc.workloads.resize(2);
  for (auto& point : sc.workloads) {
    if (o.seed) point.workload.seed = *o.seed;
    if (o.tiny) point.workload.byte_rate /= 8.0;
  }
  return sc;
}

std::string sweep_digest(const std::vector<sim::SweepPoint>& points) {
  Digest d;
  for (const auto& point : points) {
    for (const auto& outcome : point.outcomes) add_run(d, outcome.metrics);
  }
  return d.hex();
}

json::Value sweep_sim(const spec::Scenario& sc,
                      const std::vector<sim::SweepPoint>& points) {
  const std::size_t joint = joint_index(sc.roster);
  double pct = 0.0;
  double total_j = 0.0;
  for (const auto& point : points) {
    pct += point.outcomes[joint].normalized.total * 100.0;
    for (const auto& outcome : point.outcomes) {
      total_j += outcome.metrics.total_j();
    }
  }
  return sim_metrics(pct / static_cast<double>(points.size()), total_j / 1e3);
}

std::uint64_t sweep_events(const std::vector<sim::SweepPoint>& points) {
  std::uint64_t n = 0;
  for (const auto& point : points) {
    for (const auto& outcome : point.outcomes) {
      n += events_processed(outcome.metrics);
    }
  }
  return n;
}

// The serial split of one sweep: scenario load, synthesis per point, and
// every roster entry replayed alone; Joint runs go through push_split.
Pass sweep_pass(const Options& o, bool traced) {
  Ledger ledger(traced);
  const auto t0 = Clock::now();
  spec::Scenario sc;
  ledger.time("spec.load_s", [&] { sc = load_sweep(o); });
  Digest d;
  for (const auto& point : sc.workloads) {
    workload::Trace trace;
    ledger.time("workload.synth_s",
                [&] { trace = workload::synthesize_trace(point.workload); });
    ledger.add("workload.synth_events", static_cast<double>(trace.size()));
    for (const auto& policy : sc.roster) {
      const std::string cls = policy_class(policy);
      sim::RunMetrics m;
      ledger.time("sim.replay_s." + cls, [&] {
        m = policy.is_joint()
                ? replay_split(trace, policy, sc.engine, ledger)
                : sim::run_simulation(trace, policy, sc.engine);
      });
      ledger.add("sim.replay_events." + cls, static_cast<double>(trace.size()));
      add_run(d, m);
    }
  }
  return Pass{seconds_since(t0), d.hex(), ledger.values()};
}

void run_sweep_workload(const Options& o, json::Object& out) {
  const unsigned threads = jpm::util::default_thread_count();
  out["threads"] = json::Value{static_cast<std::uint64_t>(threads)};
  if (o.trace) {
    // The timed path once, for its wall time and digest at `threads`.
    const spec::Scenario sc = load_sweep(o);
    const auto t0 = Clock::now();
    const auto points = spec::run_scenario(sc);
    const double wall = seconds_since(t0);
    const std::string digest = sweep_digest(points);
    out["digest"] = json::Value{digest};
    out["wall_s"] = json::Value{wall};
    traced_passes(
        kSweepTracePasses, [&](bool traced) { return sweep_pass(o, traced); },
        digest, out);
    // Serial replay work (synthesis included) over the threads' wall time.
    auto& layers = out["layers"].as_object();
    double serial_s = layers["workload.synth_s"].as_number();
    for (const char* cls : {"joint", "fixed", "bank"}) {
      serial_s += layers[std::string("sim.replay_s.") + cls].as_number();
    }
    layers["util.parallel_efficiency"] =
        json::Value{serial_s / (static_cast<double>(threads) * wall)};
    return;
  }

  std::vector<double> setup;
  spec::Scenario sc;
  time_reps(1, setup, [&] { sc = load_sweep(o); });

  json::Array reps;
  std::vector<sim::SweepPoint> points;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    points = spec::run_scenario(sc);
    const double wall = seconds_since(t0);
    json::Object rep;
    rep["wall_s"] = json::Value{wall};
    rep["events"] = json::Value{sweep_events(points)};
    rep["digest"] = json::Value{sweep_digest(points)};
    reps.emplace_back(std::move(rep));
    time_reps(kSweepLoadsPerRep, setup, [&] { sc = load_sweep(o); });
  } while (seconds_since(start) < o.seconds);
  out["reps"] = json::Value{std::move(reps)};
  out["setup_s"] = numbers(setup);
  out["sim"] = sweep_sim(sc, points);
  out["peak_rss_mb"] = json::Value{peak_rss_mb()};

  if (o.reference) {
    // Serial re-run: the digest must not depend on the thread count.
    setenv("JPM_THREADS", "1", 1);
    out["reference_digest"] = json::Value{sweep_digest(spec::run_scenario(sc))};
  }
}

// ---- replay_writes ---------------------------------------------------------------------

struct ReplayInputs {
  std::vector<workload::SynthesizerConfig> traces;
  sim::PolicySpec joint;
  sim::PolicySpec always_on;
  sim::EngineConfig engine;
};

ReplayInputs load_replay(const Options& o) {
  spec::Scenario sc =
      spec::load_scenario_file(o.root + "/scenarios/fig7_dataset.json");
  spec::validate_scenario(sc);
  const workload::SynthesizerConfig* point = nullptr;
  for (const auto& p : sc.workloads) {
    if (p.label == kReplayPoint) point = &p.workload;
  }
  JPM_CHECK_MSG(point != nullptr,
                "fig7_dataset has no " << kReplayPoint << " point");
  ReplayInputs in;
  const std::uint64_t seed = o.seed.value_or(point->seed);
  for (std::uint64_t i = 0; i < kReplayTraces; ++i) {
    workload::SynthesizerConfig w = *point;
    w.write_fraction = kReplayWriteFraction;
    w.seed = seed * kReplayTraces + i;
    if (o.tiny) w.byte_rate /= 8.0;
    in.traces.push_back(w);
  }
  in.joint = sc.roster[joint_index(sc.roster)];
  in.always_on = roster_entry(sc, sim::DiskPolicyKind::kAlwaysOn,
                              sim::MemPolicyKind::kNapAll);
  in.engine = sc.engine;
  return in;
}

std::string replay_path(const Options& o, std::size_t i) {
  return o.work + "/replay_writes_" + std::to_string(i) + ".jpmc";
}

// The serial split of one replay: scenario load, then per trace its file
// written from the generator in batches (synthesis and encode apart) and
// its Joint replay chunk by chunk through push_split.
Pass replay_pass(const Options& o, const std::string& path,
                 const std::vector<std::uint64_t>& expected_hashes,
                 bool traced) {
  Ledger ledger(traced);
  const auto t0 = Clock::now();
  ReplayInputs in;
  ledger.time("spec.load_s", [&] { in = load_replay(o); });
  Digest d;
  for (std::size_t t = 0; t < in.traces.size(); ++t) {
    const workload::SynthesizerConfig& w = in.traces[t];
    {
      std::ofstream os(path, std::ios::out | std::ios::binary);
      JPM_CHECK_MSG(os.is_open(), "cannot open for writing: " << path);
      workload::TraceGenerator gen(w);
      tracefile::TraceWriter writer(os, w.page_bytes, gen.total_pages(),
                                    w.duration_s);
      std::vector<workload::TraceEvent> batch;
      batch.reserve(kSynthBatch);
      bool more = true;
      while (more) {
        batch.clear();
        ledger.time("workload.synth_s", [&] {
          while (batch.size() < kSynthBatch) {
            auto e = gen.next();
            if (!e) {
              more = false;
              break;
            }
            batch.push_back(*e);
          }
        });
        ledger.add("workload.synth_events", static_cast<double>(batch.size()));
        ledger.time("tracefile.encode_s", [&] {
          for (const auto& e : batch) writer.append(e);
        });
      }
      tracefile::FileHeader header;
      ledger.time("tracefile.encode_s", [&] { header = writer.finish(); });
      JPM_CHECK_MSG(header.content_hash == expected_hashes[t],
                    "batched trace write differs from synthesize_to_file");
    }

    std::optional<tracefile::TraceReader> reader;
    ledger.time("tracefile.decode_s", [&] { reader.emplace(path); });
    const tracefile::FileHeader& h = reader->header();
    sim::LiveSource source;
    source.page_bytes = h.page_bytes;
    source.total_pages = h.total_pages;
    source.duration_hint_s = h.duration_s;
    sim::RunMetrics m;
    ledger.time("sim.replay_s.joint", [&] {
      auto engine = begin_engine(source, in.joint, in.engine, ledger);
      tracefile::ChunkBuffer buffer;
      for (std::size_t i = 0; i < reader->chunks().size(); ++i) {
        ledger.time("tracefile.decode_s",
                    [&] { reader->decode_chunk(i, buffer); });
        ledger.add("tracefile.decode_events",
                   static_cast<double>(buffer.size()));
        push_split(*engine, buffer.times.data(), buffer.pages.data(),
                   buffer.flags.data(), buffer.size(), ledger);
      }
      m = finish_engine(*engine, h.duration_s, ledger);
    });
    ledger.add("sim.replay_events.joint", static_cast<double>(h.event_count));
    add_run(d, m);
  }
  return Pass{seconds_since(t0), d.hex(), ledger.values()};
}

std::string digest_of(const std::vector<sim::RunMetrics>& runs) {
  Digest d;
  for (const auto& m : runs) add_run(d, m);
  return d.hex();
}

// Writes every trace file of the run, timing each write.
std::vector<tracefile::FileHeader> write_replay_traces(
    const Options& o, const ReplayInputs& in, CpuRotation* cpus,
    std::vector<double>& setup) {
  std::vector<tracefile::FileHeader> headers;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    if (cpus != nullptr) cpus->next();
    time_reps(1, setup, [&] {
      headers.push_back(
          tracefile::synthesize_to_file(replay_path(o, i), in.traces[i]));
    });
  }
  return headers;
}

// Joint's file-backed replay of every trace, in order.
std::vector<sim::RunMetrics> replay_traces(const Options& o,
                                           const ReplayInputs& in) {
  std::vector<sim::RunMetrics> runs;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    const tracefile::TraceReader reader(replay_path(o, i));
    runs.push_back(sim::replay_file(reader, in.joint, in.engine));
  }
  return runs;
}

void run_replay_workload(const Options& o, json::Object& out) {
  const ReplayInputs in = load_replay(o);
  std::vector<double> setup;
  if (o.trace) {
    std::vector<std::uint64_t> hashes;
    for (const auto& h : write_replay_traces(o, in, nullptr, setup)) {
      hashes.push_back(h.content_hash);
    }
    const auto t0 = Clock::now();
    const std::string digest = digest_of(replay_traces(o, in));
    out["wall_s"] = json::Value{seconds_since(t0)};
    out["digest"] = json::Value{digest};
    const std::string pass_path = o.work + "/replay_writes_traced.jpmc";
    traced_passes(
        kReplayTracePasses,
        [&](bool traced) { return replay_pass(o, pass_path, hashes, traced); },
        digest, out);
    return;
  }

  // One timed rep replays every trace once, each on the next CPU.
  CpuRotation cpus;
  std::uint64_t events = 0;
  for (const auto& h : write_replay_traces(o, in, &cpus, setup)) {
    events += h.event_count;
  }
  json::Array reps;
  std::vector<sim::RunMetrics> joint(in.traces.size());
  const auto start = Clock::now();
  do {
    double wall = 0.0;
    for (std::size_t i = 0; i < in.traces.size(); ++i) {
      cpus.next();
      const auto t0 = Clock::now();
      const tracefile::TraceReader reader(replay_path(o, i));
      joint[i] = sim::replay_file(reader, in.joint, in.engine);
      wall += seconds_since(t0);
    }
    json::Object rep;
    rep["wall_s"] = json::Value{wall};
    rep["events"] = json::Value{events};
    rep["digest"] = json::Value{digest_of(joint)};
    reps.emplace_back(std::move(rep));
  } while (seconds_since(start) < o.seconds);
  out["reps"] = json::Value{std::move(reps)};
  out["peak_rss_mb"] = json::Value{peak_rss_mb()};
  out["setup_s"] = numbers(setup);

  // Outside the timed phase: the always-on runs for the energy ratio, and
  // the in-memory replays, which file-backed replay must match bit for bit.
  double pct = 0.0;
  double kj = 0.0;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    const tracefile::TraceReader reader(replay_path(o, i));
    const sim::RunMetrics always_on =
        sim::replay_file(reader, in.always_on, in.engine);
    pct += joint[i].total_j() / always_on.total_j() * 100.0;
    kj += joint[i].total_j() / 1e3;
  }
  const auto n = static_cast<double>(in.traces.size());
  out["sim"] = sim_metrics(pct / n, kj / n);
  if (o.reference) {
    std::vector<sim::RunMetrics> runs;
    for (const auto& w : in.traces) {
      runs.push_back(sim::run_simulation(workload::synthesize_trace(w),
                                         in.joint, in.engine));
    }
    out["reference_digest"] = json::Value{digest_of(runs)};
  }
}

// ---- serve_jsonl -------------------------------------------------------------------------

std::string serve_scenario_path(const Options& o) {
  return o.work + "/serve_jsonl.json";
}
std::string serve_stream_path(const Options& o) {
  return o.work + "/serve_jsonl.jsonl";
}

// serve_demo with overload `block` and a fixed-memory 2T policy beside the
// always-on baseline.
spec::Scenario derive_serve_scenario(const Options& o) {
  spec::Scenario sc =
      spec::load_scenario_file(o.root + "/scenarios/serve_demo.json");
  spec::validate_scenario(sc);
  sc.name = "serve_jsonl";
  sc.description = "perfbench serve_jsonl workload, derived from serve_demo";
  sc.workloads.resize(1);
  auto& w = sc.workloads.front().workload;
  if (o.seed) w.seed = *o.seed;
  if (o.tiny) w.duration_s = kServeTinyDurationS;
  const sim::PolicySpec always_on = roster_entry(
      sc, sim::DiskPolicyKind::kAlwaysOn, sim::MemPolicyKind::kNapAll);
  sc.roster = {sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive,
                                 kServeFixedBytes),
               always_on};
  stream::StreamConfig cfg = sc.stream.value_or(stream::StreamConfig{});
  cfg.overload = stream::OverloadPolicy::kBlock;
  sc.stream = cfg;
  spec::validate_scenario(sc);
  return sc;
}

// What `jpm serve` declares for the scenario's first point.
sim::LiveSource serve_source(const spec::Scenario& sc) {
  const auto& w = sc.workloads.front().workload;
  sim::LiveSource source;
  source.page_bytes = w.page_bytes;
  source.total_pages = workload::TraceGenerator(w).total_pages();
  source.duration_hint_s = w.duration_s;
  return source;
}

// `jpm synth`'s default output for the scenario: its first point as JSONL.
std::string encode_stream(const spec::Scenario& sc) {
  std::ostringstream os;
  workload::TraceGenerator gen(sc.workloads.front().workload);
  while (auto e = gen.next()) {
    stream::StreamEvent event;
    event.time_s = e->time_s;
    event.page = e->page;
    event.flags = static_cast<std::uint8_t>(
        (e->request_start ? workload::kTraceFlagStart : 0) |
        (e->is_write ? workload::kTraceFlagWrite : 0));
    stream::write_event(os, event, stream::WireFormat::kJsonl);
  }
  return os.str();
}

// The served events replayed straight into an engine: the JSONL wire drops
// the request-start flag, so only the write bit survives.
sim::RunMetrics serve_reference(const spec::Scenario& sc,
                                const sim::PolicySpec& policy) {
  workload::Trace trace =
      workload::synthesize_trace(sc.workloads.front().workload);
  for (auto& f : trace.flags) f &= workload::kTraceFlagWrite;
  sim::Engine engine(serve_source(sc), policy, sc.engine);
  engine.push_chunk(trace.times.data(), trace.pages.data(),
                    trace.flags.data(), trace.size());
  const double last = trace.empty() ? 0.0 : trace.times.back();
  return engine.finish(std::max({last, trace.duration_s,
                                 sc.engine.warm_up_s + engine.period_s()}));
}

void run_serve_setup(const Options& o, json::Object& out) {
  const spec::Scenario sc = derive_serve_scenario(o);
  {
    std::ofstream os(serve_scenario_path(o));
    os << spec::serialize_scenario(sc);
    JPM_CHECK_MSG(os.good(), "cannot write " << serve_scenario_path(o));
  }
  std::vector<double> setup;
  std::string bytes;
  {
    CpuRotation cpus;
    time_reps(kServeSetupReps, setup, [&] {
      cpus.next();
      bytes = encode_stream(sc);
    });
  }
  {
    std::ofstream os(serve_stream_path(o), std::ios::out | std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    JPM_CHECK_MSG(os.good(), "cannot write " << serve_stream_path(o));
  }
  const sim::PolicySpec& policy = sc.roster.front();
  const sim::RunMetrics m = serve_reference(sc, policy);
  const sim::RunMetrics always_on = serve_reference(sc, sc.roster.back());
  out["setup_s"] = numbers(setup);
  out["scenario"] = json::Value{serve_scenario_path(o)};
  out["stream"] = json::Value{serve_stream_path(o)};
  out["policy"] = json::Value{policy.name};
  out["events"] = json::Value{events_processed(m)};
  out["reference_digest"] = json::Value{serve_digest(serve_report_metrics(m))};
  out["sim"] = sim_metrics(m.total_j() / always_on.total_j() * 100.0,
                           m.total_j() / 1e3);
}

// Copies the file at `path` into `fd` in 64 KiB writes, then closes `fd`.
// Stops quietly when the reader goes away (EPIPE).
void feed_file(const std::string& path, int fd) {
  const int in = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  std::vector<char> buf(64 * 1024);
  bool ok = in >= 0;
  while (ok) {
    const ssize_t n = read(in, buf.data(), buf.size());
    if (n <= 0) break;
    for (ssize_t done = 0; ok && done < n;) {
      const ssize_t w = write(fd, buf.data() + done,
                              static_cast<std::size_t>(n - done));
      if (w >= 0) {
        done += w;
      } else {
        ok = errno == EINTR;
      }
    }
  }
  if (in >= 0) close(in);
  close(fd);
}

struct Served {
  double wall_s = 0.0;
  int status = 0;  // wait status
  double peak_rss_mb = 0.0;
  std::string report;
};

// One `jpm serve` process on `cpus`, fed the stream file through a pipe by
// a feeder thread, from spawn to exit. Its peak RSS comes from wait4: a
// child's maxrss includes its parent's peak at the moment of exec, which is
// why this runs in a process of its own that never holds the stream.
Served serve_once(const Options& o, const std::string& jpm,
                  const std::string& policy, const std::vector<int>& cpus) {
  int in[2];
  int out[2];
  JPM_CHECK(pipe2(in, O_CLOEXEC) == 0 && pipe2(out, O_CLOEXEC) == 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  std::vector<std::string> args = {jpm, "serve", serve_scenario_path(o),
                                   "--policy=" + policy, "--format=jsonl"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // The child inherits the spawning thread's CPU set.
  cpu_set_t old_cpus;
  sched_getaffinity(0, sizeof old_cpus, &old_cpus);
  cpu_set_t serve_cpus;
  CPU_ZERO(&serve_cpus);
  for (int c : cpus) CPU_SET(c, &serve_cpus);
  sched_setaffinity(0, sizeof serve_cpus, &serve_cpus);
  Served s;
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  sched_setaffinity(0, sizeof old_cpus, &old_cpus);
  posix_spawn_file_actions_destroy(&actions);
  close(in[0]);
  close(out[1]);
  if (rc != 0) {
    close(in[1]);
    close(out[0]);
    JPM_CHECK_MSG(false, "cannot start " << jpm << ": " << std::strerror(rc));
  }

  std::thread feeder(feed_file, serve_stream_path(o), in[1]);
  // Read the report; past the deadline the child is killed, which ends it.
  const auto deadline = t0 + std::chrono::seconds(kServeTimeoutS);
  char buf[4096];
  bool killed = false;
  for (;;) {
    if (!killed) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      pollfd p{out[0], POLLIN, 0};
      if (left.count() <= 0 ||
          poll(&p, 1, static_cast<int>(left.count())) == 0) {
        kill(pid, SIGKILL);
        killed = true;
      }
    }
    const ssize_t n = read(out[0], buf, sizeof buf);
    if (n > 0) {
      s.report.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(out[0]);
  rusage ru{};
  while (wait4(pid, &s.status, 0, &ru) < 0 && errno == EINTR) {
  }
  s.wall_s = seconds_since(t0);
  feeder.join();
  s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return s;
}

// The timed serve loop: `jpm serve` invocations until --seconds have
// passed, each on the next pair of CPUs (one per busy thread: decode and
// pump), so a run's median covers every core.
void run_serve_timed(const Options& o, const std::string& jpm,
                     json::Object& out) {
  signal(SIGPIPE, SIG_IGN);
  const spec::Scenario sc = spec::load_scenario_file(serve_scenario_path(o));
  std::vector<int> cpus;
  {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  json::Array reps;
  const auto start = Clock::now();
  do {
    const std::size_t k = reps.size();
    const Served s =
        serve_once(o, jpm, sc.roster.front().name,
                   {cpus[k % cpus.size()], cpus[(k + 1) % cpus.size()]});
    json::Object rep;
    rep["wall_s"] = json::Value{s.wall_s};
    rep["peak_rss_mb"] = json::Value{s.peak_rss_mb};
    json::Value report;
    const bool ok = WIFEXITED(s.status) && WEXITSTATUS(s.status) == 0 &&
                    json::parse(s.report, &report) && report.is_object();
    rep["ok"] = json::Value{ok};
    if (ok) {
      const json::Object& r = report.as_object();
      const json::Object& stream = r.find("stream")->as_object();
      rep["digest"] =
          json::Value{serve_digest(r.find("metrics")->as_object())};
      rep["events_processed"] =
          json::Value{number_field(stream, "events_processed")};
      rep["shed"] = json::Value{number_field(stream, "shed_reads") +
                                number_field(stream, "shed_writes")};
    }
    reps.emplace_back(std::move(rep));
  } while (seconds_since(start) < o.seconds);
  out["reps"] = json::Value{std::move(reps)};
}

// Read-only istream over bytes already in memory.
class MemoryBuf : public std::streambuf {
 public:
  MemoryBuf(const char* data, std::size_t n) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + n);
  }
};

// The traced split of `jpm serve`, in-process: this thread decodes the
// stream in batches and offers them; a consumer thread calls pump() itself.
Pass serve_pass(const Options& o, const std::string& bytes, bool traced,
                std::uint64_t* shed_or_bad) {
  Ledger ledger(traced);
  const auto t0 = Clock::now();
  spec::Scenario sc;
  ledger.time("spec.load_s", [&] {
    sc = spec::load_scenario_file(serve_scenario_path(o));
    spec::validate_scenario(sc);
  });
  const sim::PolicySpec& policy = sc.roster.front();
  stream::StreamEngine engine(serve_source(sc), policy, sc.engine,
                              sc.stream.value_or(stream::StreamConfig{}));

  // The consumer's tallies, read after it is joined.
  double pump_s = 0.0;
  double pumps = 0.0;
  double pump_events = 0.0;
  std::thread consumer([&] {
    for (;;) {
      const auto t = traced ? Clock::now() : Clock::time_point{};
      const std::size_t n = engine.pump();
      ++pumps;
      if (n > 0) {
        if (traced) pump_s += seconds_since(t);
        pump_events += static_cast<double>(n);
        continue;
      }
      if (engine.drained()) break;
      std::this_thread::sleep_for(kPumpIdleWait);
    }
  });

  MemoryBuf buf(bytes.data(), bytes.size());
  std::istream in(&buf);
  stream::EventReader reader(in, stream::WireFormat::kJsonl);
  // Decode and offer alternate per event, as in `jpm serve`; a traced pass
  // splits the time between them with one clock read per phase.
  stream::StreamEvent event;
  std::uint64_t bad = 0;
  std::uint64_t decoded = 0;
  double decode_s = 0.0;
  double offer_s = 0.0;
  Clock::time_point mark = Clock::now();
  for (;;) {
    const auto status = reader.next(&event);
    if (traced) decode_s += lap(mark);
    if (status != stream::EventReader::Status::kEvent) {
      if (status == stream::EventReader::Status::kError) ++bad;
      break;
    }
    ++decoded;
    if (!engine.offer(event)) ++bad;
    if (traced) offer_s += lap(mark);
  }
  ledger.add("stream.decode_s", decode_s);
  ledger.add("stream.decode_events", static_cast<double>(decoded));
  ledger.add("stream.offer_s", offer_s);
  engine.close();
  consumer.join();
  const sim::RunMetrics m = engine.finish();
  const stream::StreamStats stats = engine.stats();
  *shed_or_bad = bad;

  ledger.add("stream.pump_s", pump_s);
  ledger.add("stream.pumps", pumps);
  ledger.add("stream.pump_events", pump_events);
  // The engine's whole share of serve is the work inside pump().
  ledger.add("sim.replay_s.fixed", pump_s);
  ledger.add("sim.replay_events.fixed", pump_events);
  std::map<std::string, double> layers = ledger.values();
  layers["stream.blocked_s"] = stats.blocked_s;
  layers["stream.max_occupancy"] = static_cast<double>(stats.max_occupancy);
  return Pass{seconds_since(t0), serve_digest(serve_report_metrics(m)),
              layers};
}

void run_serve_trace(const Options& o, const std::string& expected_digest,
                     json::Object& out) {
  std::string bytes;
  {
    std::ifstream in(serve_stream_path(o), std::ios::in | std::ios::binary);
    JPM_CHECK_MSG(in.is_open(), "cannot read " << serve_stream_path(o));
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  std::uint64_t bad_total = 0;
  traced_passes(
      kTracePasses,
      [&](bool traced) {
        std::uint64_t bad = 0;
        Pass p = serve_pass(o, bytes, traced, &bad);
        bad_total += bad;
        return p;
      },
      expected_digest, out);
  out["shed_or_undecodable"] = json::Value{bad_total};
}

// ---- entry -------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: jpmbench sweep|replay|serve-setup|serve-run|"
               "serve-trace --root <repo> --work <dir> --out <file> "
               "[--seed N] [--seconds S] [--trace] [--tiny] [--reference] "
               "[--expect <digest>] [--jpm <jpm binary>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string expect;
  std::string jpm;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  o.mode = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw std::invalid_argument(a + " needs a value");
      return args[++i];
    };
    if (a == "--root") {
      o.root = value();
    } else if (a == "--work") {
      o.work = value();
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--expect") {
      expect = value();
    } else if (a == "--jpm") {
      jpm = value();
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--reference") {
      o.reference = true;
    } else {
      std::cerr << "jpmbench: unknown option " << a << "\n";
      return usage();
    }
  }
  if (o.out.empty()) return usage();

  try {
    json::Object out;
    if (o.mode == "sweep") {
      run_sweep_workload(o, out);
    } else if (o.mode == "replay") {
      run_replay_workload(o, out);
    } else if (o.mode == "serve-setup") {
      run_serve_setup(o, out);
    } else if (o.mode == "serve-run") {
      run_serve_timed(o, jpm, out);
    } else if (o.mode == "serve-trace") {
      run_serve_trace(o, expect, out);
    } else {
      return usage();
    }
    std::ofstream os(o.out);
    os << json::dump(json::Value{std::move(out)}, 2) << "\n";
    if (!os.good()) {
      std::cerr << "jpmbench: cannot write " << o.out << "\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "jpmbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
