// run_scenario: the one driver behind `jpm run`, dispatching on
// output.report. The sweep reports print the metric (or cluster) tables;
// every other report prints one paper table/figure or extension study. The
// scenario supplies the workloads, roster, engine and cluster; the
// overrides that *are* the experiment (bank sizes, period lengths, device
// presets, fault plans, distribution schemes) live here. validate_scenario
// has already checked the shape each report indexes (check_report_shape),
// so roster[1] and workloads[1] exist where read.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "jpm/cache/lru_cache.h"
#include "jpm/cache/miss_curve.h"
#include "jpm/cache/partitioned_lru.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/disk/disk_array.h"
#include "jpm/disk/disk_model.h"
#include "jpm/disk/offline.h"
#include "jpm/mem/rdram_model.h"
#include "jpm/pareto/pareto.h"
#include "jpm/pareto/timeout_math.h"
#include "jpm/spec/run.h"
#include "jpm/util/check.h"
#include "jpm/util/rng.h"
#include "jpm/util/table.h"
#include "jpm/util/units.h"
#include "jpm/workload/synthesizer.h"

namespace jpm::spec {
namespace {

void note(const RunOptions& options, const std::string& line) {
  if (options.progress) options.progress(line);
}

// Fig. 1 (RDRAM chip and Seagate IDE disk) with every derived constant of
// Table II, the disk bandwidth table, and the Fig. 3 extended-LRU example.
void report_models(const Scenario& sc) {
  const mem::RdramParams m = sc.engine.joint.mem;
  const disk::DiskParams d = sc.engine.joint.disk;
  Table mt({"memory parameter", "value"});
  mt.row().cell("bank size").cell(num(to_mib(m.bank_bytes), 0) + " MB");
  mt.row().cell("nap (static) power").cell(num(m.nap_mw_per_mb, 3) +
                                           " mW/MB");
  mt.row().cell("dynamic energy").cell(num(m.dynamic_mj_per_mb, 3) +
                                       " mJ/MB");
  mt.row().cell("power-down power / nap").cell(num(m.powerdown_fraction, 2));
  mt.row().cell("power-down timeout").cell(
      num(m.powerdown_timeout_s * 1e6, 0) + " us");
  mt.row().cell("disable timeout (break-even)").cell(
      num(m.disable_timeout_s, 0) + " s");
  mt.row().cell("128 GB nap power").cell(num(m.nap_power_w(128 * kGiB), 1) +
                                         " W");
  std::cout << mt.to_string();

  Table dt({"disk parameter", "value"});
  dt.row().cell("active power").cell(num(d.active_w, 1) + " W");
  dt.row().cell("idle power").cell(num(d.idle_w, 1) + " W");
  dt.row().cell("standby power").cell(num(d.standby_w, 1) + " W");
  dt.row().cell("static (manageable) power p_d").cell(
      num(d.static_power_w(), 1) + " W");
  dt.row().cell("dynamic peak power").cell(num(d.dynamic_power_w(), 1) +
                                           " W");
  dt.row().cell("round-trip transition energy").cell(
      num(d.transition_j, 1) + " J");
  dt.row().cell("break-even time t_be").cell(num(d.break_even_s(), 1) + " s");
  dt.row().cell("spin-up time t_tr").cell(num(d.spin_up_s, 0) + " s");
  std::cout << "\n" << dt.to_string();

  const disk::ServiceModel svc(d);
  Table bw({"request size", "bandwidth (MB/s)"});
  for (std::uint64_t kb : {4, 16, 64, 128, 256, 1024, 4096, 16384}) {
    bw.row()
        .cell(std::to_string(kb) + " kB")
        .cell(num(svc.bandwidth_bytes_per_s(kb * kKiB) / 1e6, 1));
  }
  std::cout << "\n== bandwidth table (random requests; the paper derives the "
               "same table from DiskSim) ==\n"
            << bw.to_string();

  std::cout << "\nFig. 3 — extended-LRU worked example, accesses "
               "(1,2,3,5,2,1,4,6,5,2)\n";
  cache::StackDistanceTracker tracker;
  cache::MissCurve curve(1, 8);
  for (std::uint64_t r : {1, 2, 3, 5, 2, 1, 4, 6, 5, 2}) {
    curve.add(tracker.access(r));
  }
  Table lru({"LRU position", "counter"});
  for (std::uint64_t u = 0; u < 8; ++u) {
    lru.row().cell(std::to_string(u + 1)).cell(curve.counter(u));
  }
  std::cout << lru.to_string();
  Table pred({"memory size (pages)", "predicted disk accesses"});
  for (std::uint64_t s : {3, 4, 5, 8}) {
    pred.row().cell(std::to_string(s)).cell(curve.misses_at(s));
  }
  std::cout << "\n" << pred.to_string();
}

// Fig. 5: CDFs of a short-tailed and a heavy-tailed Pareto idle-length
// distribution, and the timeout guidance each implies (eq. 5).
void report_pareto_cdf(const Scenario& sc) {
  const pareto::ParetoDistribution d1(2.5, 0.5);
  const pareto::ParetoDistribution d2(1.2, 2.0);
  const pareto::DiskTimeoutParams disk = sc.engine.joint.disk.timeout_params();
  Table t({"idle length (s)", "CDF (a=2.5, b=0.5)", "CDF (a=1.2, b=2.0)"});
  for (double l : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
    t.row().cell(num(l, 1)).cell(num(d1.cdf(l), 4)).cell(num(d2.cdf(l), 4));
  }
  std::cout << t.to_string();

  Table s({"distribution", "mean idle (s)", "optimal timeout a*t_be (s)",
           "expected power at optimum (W)", "power if never off (W)"});
  for (const auto* d : {&d1, &d2}) {
    const double t_opt = pareto::optimal_timeout(*d, disk);
    s.row()
        .cell("alpha=" + num(d->alpha(), 2) + " beta=" + num(d->beta(), 2))
        .cell(num(d->mean(), 2))
        .cell(num(t_opt, 1))
        .cell(num(pareto::expected_power(*d, 60, 600.0, t_opt, disk), 2))
        .cell(num(disk.static_power_w, 2));
  }
  std::cout << "\n== timeout guidance (60 idle intervals per 10-min period) =="
            << "\n"
            << s.to_string();
}

// Timeout policies against the offline oracle (the methodology of Lu et
// al.), in p_d-band energy over Pareto gap populations of varying tail.
void report_timeout_policies(const Scenario& sc) {
  const auto disk = sc.engine.joint.disk.timeout_params();
  Table t({"gap distribution", "oracle", "2T (t_be)", "randomized",
           "adaptive", "predictive", "Pareto eq.5", "never off",
           "2T/oracle"});
  Rng rng(77);
  for (double alpha : {1.1, 1.3, 1.6, 2.0, 3.0, 6.0}) {
    for (double beta : {0.5, 4.0}) {
      const pareto::ParetoDistribution d(alpha, beta);
      std::vector<double> gaps;
      gaps.reserve(10000);
      double mean = 0.0;
      for (int i = 0; i < 10000; ++i) {
        gaps.push_back(d.sample(rng));
        mean += gaps.back();
      }
      mean /= static_cast<double>(gaps.size());

      const double oracle = disk::oracle_energy_j(gaps, disk);
      const double two_t =
          disk::fixed_timeout_energy_j(gaps, disk.break_even_s, disk);
      const double eq5_timeout =
          pareto::optimal_timeout(pareto::fit_from_mean(mean, beta), disk);
      t.row().cell("alpha=" + num(alpha, 1) + " beta=" + num(beta, 1));
      for (const double joules :
           {oracle, two_t, disk::randomized_timeout_energy_j(gaps, disk, 9),
            disk::adaptive_timeout_energy_j(
                gaps, disk::AdaptiveTimeoutConfig{}, disk),
            disk::predictive_timeout_energy_j(gaps, disk),
            disk::fixed_timeout_energy_j(gaps, eq5_timeout, disk),
            disk::fixed_timeout_energy_j(gaps, pareto::kNeverTimeout, disk)}) {
        t.cell(num(joules / 1e3, 1));
      }
      t.cell(num(disk::competitive_ratio(two_t, oracle), 2));
    }
  }
  std::cout << t.to_string();
}

// Fig. 9: per-period disk accesses and mean idle length of each roster
// policy over the first workload (the paper plots fixed 8 and 16 GB).
void report_timeline(const Scenario& sc, const RunOptions& options) {
  for (const auto& policy : sc.roster) {
    const auto m =
        sim::run_simulation(sc.workloads.front().workload, policy, sc.engine);
    const std::string gb = std::to_string(policy.fixed_bytes / kGiB) + "GB";
    Table t({"period", "disk accesses", "mean idle (ms)", "Δ vs prev"});
    for (std::size_t i = 0; i < m.periods.size(); ++i) {
      const auto& p = m.periods[i];
      std::string delta = "-";
      const std::uint64_t prev = i > 0 ? m.periods[i - 1].disk_accesses : 0;
      if (prev > 0) {
        delta = pct(std::abs(static_cast<double>(p.disk_accesses) -
                             static_cast<double>(prev)) /
                    static_cast<double>(prev));
      }
      t.row()
          .cell(std::to_string(i + 1))
          .cell(p.disk_accesses)
          .cell(num(p.mean_idle_s * 1e3, 1))
          .cell(delta);
    }
    std::cout << "\n== " << gb << " memory ==\n" << t.to_string();
    note(options, gb + " run done");
  }
}

// Tables IV and V: roster[0] under one engine override per row, energy as a
// share of roster[1]'s.
Table sensitivity_table(const char* knob) {
  return Table({knob, "total energy %", "disk energy %", "memory energy %",
                "long-latency req/s"});
}

void sensitivity_row(Table& t, const std::string& label,
                     const sim::NormalizedEnergy& n,
                     const sim::RunMetrics& m) {
  t.row()
      .cell(label)
      .cell(pct(n.total))
      .cell(pct(n.disk))
      .cell(pct(n.memory))
      .cell(num(m.long_latency_per_s()));
}

// Table IV: period length T. Energy is compared as average power, because
// the warm-up (two full periods, so the joint method's full-memory startup
// never leaks into the measured window) and so the measured window differ
// across rows.
void report_period(const Scenario& sc, const RunOptions& options) {
  const auto& workload = sc.workloads.front().workload;
  auto base_engine = sc.engine;
  base_engine.joint.period_s = 1800.0;
  const auto baseline =
      sim::run_simulation(workload, sc.roster[1], base_engine);
  const auto power = [](double joules, const sim::RunMetrics& m) {
    return joules / m.duration_s;
  };
  Table t = sensitivity_table("period");
  for (double minutes : {5.0, 10.0, 20.0, 30.0}) {
    auto engine = sc.engine;
    engine.joint.period_s = minutes * 60.0;
    engine.warm_up_s =
        std::max(sc.engine.warm_up_s, 2.0 * engine.joint.period_s);
    const auto m = sim::run_simulation(workload, sc.roster[0], engine);
    const sim::NormalizedEnergy n{
        power(m.total_j(), m) / power(baseline.total_j(), baseline),
        power(m.disk_energy.total_j(), m) /
            power(baseline.disk_energy.total_j(), baseline),
        power(m.mem_energy.total_j(), m) /
            power(baseline.mem_energy.total_j(), baseline)};
    sensitivity_row(t, num(minutes, 0) + " min", n, m);
    note(options, "T=" + num(minutes, 0) + "min done");
  }
  std::cout << t.to_string();
}

// Table V: memory bank (resize-unit) size.
void report_bank(const Scenario& sc, const RunOptions& options) {
  const auto& workload = sc.workloads.front().workload;
  const auto baseline = sim::run_simulation(workload, sc.roster[1], sc.engine);
  Table t = sensitivity_table("bank size");
  for (std::uint64_t mb : {16, 64, 256, 1024}) {
    auto engine = sc.engine;
    engine.joint.unit_bytes = mib(mb);
    engine.joint.mem.bank_bytes = mib(mb);
    const auto m = sim::run_simulation(workload, sc.roster[0], engine);
    sensitivity_row(t, std::to_string(mb) + " MB",
                    sim::normalize_energy(m, baseline), m);
    note(options, "bank=" + std::to_string(mb) + "MB done");
  }
  std::cout << t.to_string();
}

// The joint method's design choices, one knob per section: performance
// constraints, idle-aggregation window w, delayed-request limit D, timeout
// derivation rule, and Pareto shape estimator.
void report_ablation(const Scenario& sc, const RunOptions& options) {
  const auto& workload = sc.workloads.front().workload;
  const auto baseline = sim::run_simulation(workload, sc.roster[1], sc.engine);
  struct Variant {
    std::string label;
    sim::EngineConfig engine;
  };
  const auto section = [&](const char* title, const char* knob,
                           const std::vector<Variant>& variants) {
    Table t({knob, "total energy %", "utilization", "long-latency req/s",
             "mean latency ms"});
    for (const auto& v : variants) {
      const auto m = sim::run_simulation(workload, sc.roster[0], v.engine);
      t.row()
          .cell(v.label)
          .cell(pct(sim::normalize_energy(m, baseline).total))
          .cell(pct(m.utilization()))
          .cell(num(m.long_latency_per_s()))
          .cell(ms(m.mean_latency_s()));
      note(options, v.label + " done");
    }
    std::cout << "\n== " << title << " ==\n" << t.to_string();
  };
  auto unconstrained = sc.engine;
  unconstrained.joint.util_limit = 1e9;
  unconstrained.joint.delay_limit = 1e9;
  section("(1) performance constraints", "constraints",
          {{"U=10%, D=0.001 (paper)", sc.engine},
           {"constraints disabled", unconstrained}});
  std::vector<Variant> windows;
  for (double w : {0.01, 0.1, 1.0, 10.0}) {
    windows.push_back({num(w, 2) + " s", sc.engine});
    windows.back().engine.joint.window_s = w;
  }
  section("(2) idle-aggregation window", "window w", windows);
  std::vector<Variant> limits;
  for (double d : {1e-4, 1e-3, 1e-2}) {
    limits.push_back({num(d, 4), sc.engine});
    limits.back().engine.joint.delay_limit = d;
  }
  section("(3) delayed-request limit", "delay limit D", limits);
  std::vector<Variant> rules;
  for (const auto& [label, rule] :
       {std::pair{"Pareto eq.5 (paper)", core::TimeoutRule::kPareto},
        std::pair{"exponential (memoryless)",
                  core::TimeoutRule::kExponential},
        std::pair{"2-competitive t_be", core::TimeoutRule::kTwoCompetitive}}) {
    rules.push_back({label, sc.engine});
    rules.back().engine.joint.timeout_rule = rule;
  }
  section("(4) timeout derivation rule", "timeout rule", rules);
  std::vector<Variant> estimators;
  for (const auto& [label, est] :
       {std::pair{"moment (paper)", core::AlphaEstimator::kMoment},
        std::pair{"maximum likelihood", core::AlphaEstimator::kMle}}) {
    estimators.push_back({label, sc.engine});
    estimators.back().engine.joint.alpha_estimator = est;
  }
  section("(5) Pareto shape estimator", "alpha estimator", estimators);
}

// roster[0] with write traffic: (a) growing write fraction at the
// scenario's flush interval, (b) stretching the flush interval at write
// fraction 0.3, energy as a share of roster[1] on the read-only workload.
void report_writes(const Scenario& sc, const RunOptions& options) {
  const auto& base_workload = sc.workloads.front().workload;
  const auto baseline =
      sim::run_simulation(base_workload, sc.roster[1], sc.engine);
  const auto section = [&](const char* title, const char* knob,
                           const std::vector<double>& values, auto&& run) {
    Table t({knob, "total energy %", "disk energy (kJ)", "disk writes",
             "spin-downs", "long-latency req/s"});
    for (double v : values) {
      const auto [label, m] = run(v);
      t.row()
          .cell(label)
          .cell(pct(m.total_j() / baseline.total_j()))
          .cell(num(m.disk_energy.total_j() / 1e3, 1))
          .cell(m.disk_writes)
          .cell(m.disk_shutdowns)
          .cell(num(m.long_latency_per_s()));
    }
    std::cout << "\n== " << title << " ==\n" << t.to_string();
  };

  section("(a) write fraction (flush every 30 s)", "write fraction",
          {0.0, 0.1, 0.3, 0.5}, [&](double wf) {
            auto w = base_workload;
            w.write_fraction = wf;
            auto m = sim::run_simulation(w, sc.roster[0], sc.engine);
            note(options, "write fraction " + num(wf, 1) + " done");
            return std::pair{num(wf, 1), std::move(m)};
          });
  auto w = base_workload;
  w.write_fraction = 0.3;
  section("(b) flush interval (write fraction 0.3)", "flush interval",
          {5.0, 30.0, 120.0, 600.0}, [&](double interval) {
            auto engine = sc.engine;
            engine.flush_interval_s = interval;
            auto m = sim::run_simulation(w, sc.roster[0], engine);
            note(options, "flush " + num(interval, 0) + "s done");
            return std::pair{num(interval, 0) + " s", std::move(m)};
          });
}

// Every roster policy over 1-, 2- and 4-spindle striped arrays: one joint
// decision sets the memory size and a shared timeout for every spindle.
void report_multidisk(const Scenario& sc, const RunOptions& options) {
  Table t({"disks", "method", "total energy (kJ)", "disk energy (kJ)",
           "per-spindle util", "long-latency req/s", "spin-downs"});
  for (std::uint32_t disks : {1u, 2u, 4u}) {
    auto engine = sc.engine;
    engine.disk_count = disks;
    for (const auto& policy : sc.roster) {
      const auto m =
          sim::run_simulation(sc.workloads.front().workload, policy, engine);
      t.row()
          .cell(std::to_string(disks))
          .cell(policy.name)
          .cell(num(m.total_j() / 1e3, 1))
          .cell(num(m.disk_energy.total_j() / 1e3, 1))
          .cell(pct(m.utilization()))
          .cell(num(m.long_latency_per_s()))
          .cell(m.disk_shutdowns);
      note(options, std::to_string(disks) + " disks: " + policy.name +
                        " done");
    }
  }
  std::cout << t.to_string();
}

// Every roster policy on the paper's server IDE drive, a 2.5" laptop drive
// and an SSD-like device.
void report_devices(const Scenario& sc, const RunOptions& options) {
  Table t({"device", "method", "total energy (kJ)", "disk energy (kJ)",
           "memory energy (kJ)", "t_be (s)", "spin-downs",
           "long-latency req/s"});
  const std::pair<const char*, disk::DiskParams> devices[] = {
      {"server IDE", disk::presets::server_ide()},
      {"laptop 2.5\"", disk::presets::laptop_25()},
      {"SSD-like", disk::presets::ssd_like()},
  };
  for (const auto& [label, params] : devices) {
    auto engine = sc.engine;
    engine.joint.disk = params;
    for (const auto& policy : sc.roster) {
      const auto m =
          sim::run_simulation(sc.workloads.front().workload, policy, engine);
      t.row()
          .cell(label)
          .cell(policy.name)
          .cell(num(m.total_j() / 1e3, 1))
          .cell(num(m.disk_energy.total_j() / 1e3, 2))
          .cell(num(m.mem_energy.total_j() / 1e3, 1))
          .cell(num(params.break_even_s(), 1))
          .cell(m.disk_shutdowns)
          .cell(num(m.long_latency_per_s()));
      note(options, std::string(label) + " " + policy.name + " done");
    }
  }
  std::cout << t.to_string();
  std::cout << "\nNote: the 2T baseline uses each device's own break-even "
               "time as its timeout.\n";
}

// Multi-speed (DRPM) versus spin-down disks: one sweep per workload point,
// one row per (point, policy).
void report_drpm(const Scenario& sc, const RunOptions& options) {
  Table t({"rate", "method", "total energy %", "disk energy (kJ)",
           "mean latency ms", "long-latency req/s", "shifts/spin-downs"});
  for (const auto& point : sc.workloads) {
    const std::vector<sim::SweepWorkload> wl{
        {point.label, point.workload, {}, {}}};
    const auto points =
        sim::run_sweep(wl, sc.roster, sc.engine, options.progress);
    for (const auto& o : points[0].outcomes) {
      t.row()
          .cell(point.label)
          .cell(o.spec.name)
          .cell(pct(o.normalized.total))
          .cell(num(o.metrics.disk_energy.total_j() / 1e3, 1))
          .cell(ms(o.metrics.mean_latency_s()))
          .cell(num(o.metrics.long_latency_per_s()))
          .cell(o.metrics.disk_shutdowns);
    }
  }
  std::cout << t.to_string();
}

// PB-LRU-style energy-aware cache partitioning against one global LRU over
// a 4-disk array: workloads[0] (the hot class) lives on disks 0-1,
// workloads[1] (the archive) on disks 2-3, sharing a 5 GB cache.
struct ClassEvent {
  double time_s;
  std::uint64_t page;
  std::uint32_t disk;
  std::uint32_t klass;  // 0 = hot, 1 = archive
};

std::vector<ClassEvent> merge_classes(const Scenario& sc) {
  const auto hot = workload::synthesize_trace(sc.workloads[0].workload);
  const auto archive = workload::synthesize_trace(sc.workloads[1].workload);
  const std::uint64_t offset =
      sc.workloads[0].workload.dataset_bytes / (256 * kKiB) + 64;
  std::vector<ClassEvent> merged;
  merged.reserve(hot.size() + archive.size());
  std::size_t i = 0, j = 0;
  while (i < hot.size() || j < archive.size()) {
    if (j >= archive.size() ||
        (i < hot.size() && hot.times[i] <= archive.times[j])) {
      merged.push_back({hot.times[i], hot.pages[i],
                        static_cast<std::uint32_t>(hot.pages[i] / 256 % 2), 0});
      ++i;
    } else {
      merged.push_back(
          {archive.times[j], archive.pages[j] + offset,
           static_cast<std::uint32_t>(2 + archive.pages[j] / 256 % 2), 1});
      ++j;
    }
  }
  return merged;
}

void report_partition(const Scenario& sc, const RunOptions& options) {
  const double duration_s = sc.workloads[0].workload.duration_s;
  const double warm_up_s = sc.engine.warm_up_s;
  const std::uint64_t page_bytes = 256 * kKiB;
  const std::uint64_t cache_frames = gib(5) / page_bytes;
  const std::uint64_t unit_frames = mib(256) / page_bytes;
  const double epoch_s = 600.0;
  const auto trace = merge_classes(sc);

  disk::DiskArrayConfig array_cfg;
  array_cfg.disk_count = 4;
  array_cfg.stripe_bytes = 256 * page_bytes;
  array_cfg.page_bytes = page_bytes;
  const auto disk_params = array_cfg.params.timeout_params();

  Table t({"cache policy", "disk energy (kJ)", "hot-class misses",
           "archive misses", "spin-downs"});
  for (bool partitioned : {false, true}) {
    disk::DiskArray disks(array_cfg, [&] {
      return std::make_unique<disk::FixedTimeout>(
          array_cfg.params.break_even_s());
    }, 0.0);
    cache::LruCache global(
        cache::LruCacheOptions{cache_frames, unit_frames, cache_frames});
    cache::PartitionedLruCache pblru(
        cache::PartitionedLruOptions{4, cache_frames, unit_frames});

    // Warm start: stream the page universe through the cache before t = 0
    // so compulsory misses do not blur the capacity story.
    std::map<std::uint64_t, std::uint32_t> universe;
    for (const auto& e : trace) universe.emplace(e.page, e.disk);
    for (const auto& [page, d] : universe) {
      if (partitioned) {
        pblru.access(d, page);
      } else if (!global.lookup(page)) {
        global.insert(page);
      }
    }
    pblru.reset_epoch();

    // A partition's energy as a function of its predicted misses (the
    // PB-LRU insight): misses sparse enough to let the disk sleep cost one
    // wake cycle each; anything denser pins the disk awake all epoch.
    const auto energy_model = [&](std::size_t, std::uint64_t misses) {
      if (misses == 0) return 0.0;
      const double gap = epoch_s / static_cast<double>(misses);
      if (gap > disk_params.break_even_s) {
        return static_cast<double>(misses) * disk_params.static_power_w *
               2.0 * disk_params.break_even_s;
      }
      return disk_params.static_power_w * epoch_s;
    };
    double next_epoch = epoch_s;
    std::uint64_t misses[2] = {0, 0};
    for (const auto& e : trace) {
      if (partitioned && e.time_s >= next_epoch) {
        pblru.rebalance(energy_model);
        next_epoch += epoch_s;
      }
      disks.advance(e.time_s);
      bool hit;
      if (partitioned) {
        hit = pblru.access(e.disk, e.page);
      } else {
        hit = global.lookup(e.page).has_value();
        if (!hit) global.insert(e.page);
      }
      if (!hit) {
        disks.read(e.time_s, e.page, page_bytes);
        if (e.time_s >= warm_up_s) ++misses[e.klass];
      }
    }
    const auto warm = disks.energy_through(warm_up_s);
    disks.finalize(duration_s);
    t.row()
        .cell(partitioned ? "PB-LRU (energy-aware)" : "global LRU")
        .cell(num((disks.energy().total_j() - warm.total_j()) / 1e3, 1))
        .cell(misses[0])
        .cell(misses[1])
        .cell(disks.shutdowns());
    note(options, partitioned ? "PB-LRU done" : "global LRU done");
  }
  std::cout << t.to_string();
}

std::uint64_t power_cycles(const cluster::ClusterMetrics& m) {
  std::uint64_t cycles = 0;
  for (const auto& s : m.servers) cycles += s.power_cycles;
  return cycles;
}

// roster[0] inside the cluster under each request-distribution scheme.
void report_distribution(const Scenario& sc, const RunOptions& options) {
  Table t({"distribution", "pipeline energy (kJ)", "chassis energy (kJ)",
           "total (kJ)", "balance index", "mean latency ms",
           "long-latency req/s", "power cycles"});
  const std::pair<const char*, cluster::DistributionPolicy> policies[] = {
      {"round-robin", cluster::DistributionPolicy::kRoundRobin},
      {"partitioned", cluster::DistributionPolicy::kPartitioned},
      {"unbalanced", cluster::DistributionPolicy::kUnbalanced},
  };
  for (const auto& [label, distribution] : policies) {
    cluster::ClusterConfig cfg = cluster_config(sc);
    cfg.distribution = distribution;
    const auto m =
        cluster::ClusterEngine(cfg, sc.workloads.front().workload,
                               sc.roster[0])
            .run();
    t.row()
        .cell(label)
        .cell(num(m.pipeline_energy_j() / 1e3, 1))
        .cell(num(m.chassis_energy_j() / 1e3, 1))
        .cell(num(m.total_j() / 1e3, 1))
        .cell(num(m.balance_index(), 2))
        .cell(ms(m.mean_latency_s()))
        .cell(num(m.long_latency_per_s()))
        .cell(power_cycles(m));
    note(options, std::string(label) + " done");
  }
  std::cout << t.to_string();
}

// roster[0] under injected faults. Section 1: spin-up failures on a cold
// 4-disk array over workloads[0], with a short break-even (transition_j
// 7.75 J -> ~1.2 s) so the disks spin-cycle constantly and failures fire,
// and the closed-loop guard on. Section 2: server crashes in the cluster
// over workloads[1].
void report_faults(const Scenario& sc, const RunOptions& options) {
  const auto& joint_spec = sc.roster[0];
  {
    const auto& workload = sc.workloads[0].workload;
    Table t({"p(spinup fail)", "total energy (kJ)", "mean latency ms",
             "spin-up retries", "retry delay s", "degraded spindles",
             "rerouted req", "violated periods", "guard backoffs"});
    for (const double p : {0.0, 0.05, 0.2, 0.5}) {
      auto engine = sc.engine;
      engine.joint.physical_bytes = gib(1);
      engine.joint.disk.transition_j = 7.75;
      engine.disk_count = 4;
      engine.stripe_bytes = workload.page_bytes;
      engine.prefill_cache = false;
      engine.warm_up_s = 0.0;
      if (p > 0.0) {
        engine.fault.enabled = true;
        engine.fault.seed = 7;
        engine.fault.p_spinup_fail = p;
        engine.fault.guard.enabled = true;
      }
      const auto m = sim::run_simulation(workload, joint_spec, engine);
      const auto& r = m.reliability;
      t.row()
          .cell(num(p, 2))
          .cell(num(m.total_j() / 1e3, 1))
          .cell(ms(m.mean_latency_s()))
          .cell(r.spinup_retries)
          .cell(num(r.retry_delay_s, 1))
          .cell(static_cast<std::uint64_t>(r.degraded_spindles))
          .cell(r.rerouted_requests)
          .cell(r.violated_periods)
          .cell(r.guard_backoffs);
      note(options, "p=" + num(p, 2) + " done");
    }
    std::cout << t.to_string();
  }

  std::cout << "\nServer crash injection, 4-server partitioned cluster "
               "(8 GB data set, 40 MB/s, 150 W chassis, 2-minute outages)\n";
  Table t({"server MTBF", "crashes", "failed-over req", "power cycles",
           "total energy (kJ)", "mean latency ms", "balance index"});
  const std::pair<const char*, double> mtbfs[] = {
      {"none", 0.0},
      {"2 h", 7200.0},
      {"30 min", 1800.0},
  };
  for (const auto& [label, mtbf] : mtbfs) {
    cluster::ClusterConfig cfg = cluster_config(sc);
    if (mtbf > 0.0) {
      cfg.engine.fault.enabled = true;
      cfg.engine.fault.seed = 11;
      cfg.engine.fault.server_mtbf_s = mtbf;
      cfg.engine.fault.server_outage_s = 120.0;
    }
    const auto m =
        cluster::ClusterEngine(cfg, sc.workloads[1].workload, joint_spec)
            .run();
    t.row()
        .cell(label)
        .cell(m.reliability.server_crashes)
        .cell(m.reliability.failed_over_requests)
        .cell(power_cycles(m))
        .cell(num(m.total_j() / 1e3, 1))
        .cell(ms(m.mean_latency_s()))
        .cell(num(m.balance_index(), 2));
    note(options, std::string("mtbf ") + label + " done");
  }
  std::cout << t.to_string();
}

// Every report but the sweep reports.
void run_report(const Scenario& sc, const RunOptions& options) {
  switch (sc.output.report) {
    case Report::kSweep:
    case Report::kAccesses:
      break;
    case Report::kModels:
      return report_models(sc);
    case Report::kParetoCdf:
      return report_pareto_cdf(sc);
    case Report::kTimeoutPolicies:
      return report_timeout_policies(sc);
    case Report::kTimeline:
      return report_timeline(sc, options);
    case Report::kPeriod:
      return report_period(sc, options);
    case Report::kBank:
      return report_bank(sc, options);
    case Report::kAblation:
      return report_ablation(sc, options);
    case Report::kWrites:
      return report_writes(sc, options);
    case Report::kMultidisk:
      return report_multidisk(sc, options);
    case Report::kDevices:
      return report_devices(sc, options);
    case Report::kDrpm:
      return report_drpm(sc, options);
    case Report::kPartition:
      return report_partition(sc, options);
    case Report::kDistribution:
      return report_distribution(sc, options);
    case Report::kFaults:
      return report_faults(sc, options);
  }
  JPM_CHECK_MSG(false, "run_report called for a sweep report");
}

}  // namespace

std::vector<sim::SweepPoint> run_scenario(const Scenario& sc,
                                          const RunOptions& options) {
  publish_provenance(sc);
  const std::string header = expand_header(sc);
  if (!header.empty()) std::cout << header << "\n";
  if (sc.output.report != Report::kSweep &&
      sc.output.report != Report::kAccesses) {
    run_report(sc, options);
    return {};
  }

  std::vector<sim::SweepWorkload> workloads;
  workloads.reserve(sc.workloads.size());
  for (const auto& point : sc.workloads) {
    workloads.push_back(sim::SweepWorkload{point.label, point.workload,
                                           point.trace_path, point.axes});
  }

  if (sc.cluster.has_value()) {
    const auto points = cluster::run_cluster_sweep(
        cluster_config(sc), workloads, sc.roster, options.progress);
    print_cluster_table(points);
    return {};
  }

  const auto points =
      sim::run_sweep(workloads, sc.roster, sc.engine, options.progress);

  for (const auto& table : sc.output.tables) {
    print_metric_table(table.title, points, table.metric);
  }
  if (sc.output.report == Report::kAccesses) {
    // Table III's memory column: cache accesses depend only on the
    // workload, so the baseline run's count stands for every method.
    Table t({"data set", "memory accesses (millions)"});
    for (const auto& p : points) {
      t.row().cell(p.label).cell(
          num(static_cast<double>(p.baseline.cache_accesses) / 1e6, 2));
    }
    std::cout << "\n== memory (disk-cache) accesses ==\n" << t.to_string();
  }
  return points;
}

}  // namespace jpm::spec
