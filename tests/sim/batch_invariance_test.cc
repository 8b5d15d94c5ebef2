// Chunking invariance of the engine's one batched event path: however the
// event stream is split into run()/push_chunk() calls, RunMetrics must be
// bit-identical to a reference that pushes one event per call (so every
// batch is a single event and every timer edge is checked per event). The
// batch walk, its prefetch lanes, and the timer-edge limit (period
// boundaries, flush ticks, warm-up, bank disables) may never move a result.
// Covered: every policy family including the per-bank PD/DS timers (also a
// DS timeout below the period across idle gaps), writes and flushes,
// readahead (the re-probing mode), multi-disk arrays, and JPM_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/workload/trace.h"
#include "trace_from_events.h"

namespace jpm::sim {
namespace {

workload::SynthesizerConfig batch_workload(std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(128);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 900.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.write_fraction = 0.25;  // dirty pages: evict writebacks + flush bursts
  w.seed = seed;
  return w;
}

EngineConfig batch_engine() {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.warm_up_s = 300.0;
  return e;
}

std::vector<PolicySpec> six_policy_roster() {
  return {joint_policy(),
          fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64)),
          fixed_policy(DiskPolicyKind::kAdaptive, mib(128)),
          powerdown_policy(DiskPolicyKind::kTwoCompetitive, gib(1)),
          disable_policy(DiskPolicyKind::kAdaptive, gib(1)),
          always_on_policy()};
}

// Replays `trace` through a LiveSource engine in push_chunk calls of
// `chunk` events, ending at the trace's declared duration like run(). With
// `advance_first`, each call is preceded by advance_to(its first event's
// time), which fires exactly the timers that event would fire anyway.
RunMetrics push_in_chunks(const workload::Trace& trace,
                          const PolicySpec& policy, const EngineConfig& config,
                          std::size_t chunk, bool advance_first = false) {
  LiveSource source;
  source.page_bytes = trace.page_bytes;
  source.total_pages = trace.total_pages;
  source.duration_hint_s = trace.duration_s;
  Engine engine(source, policy, config);
  for (std::size_t i = 0; i < trace.size(); i += chunk) {
    const std::size_t n = std::min(chunk, trace.size() - i);
    if (advance_first) engine.advance_to(trace.times[i]);
    engine.push_chunk(trace.times.data() + i, trace.pages.data() + i,
                      trace.flags.data() + i, n);
  }
  return engine.finish(trace.duration_s);
}

void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mem_energy.static_j, b.mem_energy.static_j);
  EXPECT_EQ(a.mem_energy.dynamic_j, b.mem_energy.dynamic_j);
  EXPECT_EQ(a.disk_energy.standby_base_j, b.disk_energy.standby_base_j);
  EXPECT_EQ(a.disk_energy.static_j, b.disk_energy.static_j);
  EXPECT_EQ(a.disk_energy.transition_j, b.disk_energy.transition_j);
  EXPECT_EQ(a.disk_energy.dynamic_j, b.disk_energy.dynamic_j);
  EXPECT_EQ(a.cache_accesses, b.cache_accesses);
  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.readahead_fetches, b.readahead_fetches);
  EXPECT_EQ(a.disk_shutdowns, b.disk_shutdowns);
  EXPECT_EQ(a.spin_ups, b.spin_ups);
  EXPECT_EQ(a.disk_busy_s, b.disk_busy_s);
  EXPECT_EQ(a.spindle_count, b.spindle_count);
  EXPECT_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_EQ(a.long_latency_count, b.long_latency_count);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].start_s, b.periods[p].start_s);
    EXPECT_EQ(a.periods[p].end_s, b.periods[p].end_s);
    EXPECT_EQ(a.periods[p].cache_accesses, b.periods[p].cache_accesses);
    EXPECT_EQ(a.periods[p].disk_accesses, b.periods[p].disk_accesses);
    EXPECT_EQ(a.periods[p].mean_idle_s, b.periods[p].mean_idle_s);
    EXPECT_EQ(a.periods[p].memory_units, b.periods[p].memory_units);
    EXPECT_EQ(a.periods[p].timeout_s, b.periods[p].timeout_s);
    EXPECT_EQ(a.periods[p].busy_s, b.periods[p].busy_s);
    EXPECT_EQ(a.periods[p].delayed_requests, b.periods[p].delayed_requests);
  }
}

// Chunk sizes straddling the interesting edges: one that never divides the
// event count evenly, exactly one engine batch, and many batches per call.
const std::size_t kChunks[] = {7, 64, 4096};

// Checks run() and every push_chunk split against the one-event reference.
void expect_chunking_invariant(const workload::Trace& trace,
                               const PolicySpec& policy,
                               const EngineConfig& config) {
  const auto reference = push_in_chunks(trace, policy, config, 1);
  {
    SCOPED_TRACE("run()");
    expect_bit_identical(reference, run_simulation(trace, policy, config));
  }
  for (std::size_t chunk : kChunks) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    expect_bit_identical(reference,
                         push_in_chunks(trace, policy, config, chunk));
  }
}

TEST(BatchInvarianceTest, SixPoliciesBitIdenticalAcrossBatchSizes) {
  const auto trace = workload::synthesize_trace(batch_workload(7));
  for (const auto& policy : six_policy_roster()) {
    SCOPED_TRACE(policy.name);
    expect_chunking_invariant(trace, policy, batch_engine());
  }
}

TEST(BatchInvarianceTest, ReadaheadReprobingModeIsBatchInvariant) {
  // readahead > 0 evicts without a live tracker slot, so batches re-probe
  // per event instead of caching entry pointers — still bit-identical.
  const auto trace = workload::synthesize_trace(batch_workload(11));
  auto engine = batch_engine();
  engine.readahead_pages = 2;
  expect_chunking_invariant(
      trace, fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64)), engine);
}

TEST(BatchInvarianceTest, MultiDiskArrayIsBatchInvariant) {
  const auto trace = workload::synthesize_trace(batch_workload(13));
  auto engine = batch_engine();
  engine.disk_count = 4;
  expect_chunking_invariant(trace, joint_policy(), engine);
}

TEST(BatchInvarianceTest, DisableTimeoutBelowPeriodAfterIdleGaps) {
  // DS with a disable timeout far below the period, on a sparse trace whose
  // idle gaps outlast the timeout. advance_to() across such a gap disables
  // every bank, so the next batch starts with none armed; a bank touched
  // inside it must still stop the batch at that bank's own expiry.
  std::vector<workload::TraceEvent> events;
  std::uint64_t state = 12345;
  const double gaps[] = {0.5, 2.0, 8.0, 1.0, 3.0, 6.5};
  double t = 1.0;
  for (std::size_t i = 0; i < 3000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    events.push_back({t, (state >> 33) % 256, true, false});
    t += gaps[i % 6];
  }
  const auto trace =
      workload::trace_from_events(events, 64 * kKiB, 2048, t + 10.0);
  auto engine = batch_engine();
  engine.joint.mem.disable_timeout_s = 5.0;
  engine.flush_interval_s = 0.0;
  const auto policy = disable_policy(DiskPolicyKind::kTwoCompetitive, gib(1));
  const auto reference = push_in_chunks(trace, policy, engine, 1, true);
  expect_chunking_invariant(trace, policy, engine);
  for (std::size_t chunk : kChunks) {
    SCOPED_TRACE("advance_to + chunk " + std::to_string(chunk));
    expect_bit_identical(reference,
                         push_in_chunks(trace, policy, engine, chunk, true));
  }
}

TEST(BatchInvarianceTest, ThreadCountDoesNotInteractWithBatching) {
  const auto workload = batch_workload(7);
  const std::vector<SweepWorkload> points{{"128MB", workload, {}, {}}};
  const auto trace = workload::synthesize_trace(workload);
  const auto roster = six_policy_roster();
  std::vector<RunMetrics> references;
  for (const auto& policy : roster) {
    references.push_back(push_in_chunks(trace, policy, batch_engine(), 1));
  }
  auto sweep_at = [&](const char* threads) {
    const char* old = std::getenv("JPM_THREADS");
    const std::string saved = old ? old : "";
    const bool had_old = old != nullptr;
    ::setenv("JPM_THREADS", threads, 1);
    auto out = run_sweep(points, roster, batch_engine());
    if (had_old) {
      ::setenv("JPM_THREADS", saved.c_str(), 1);
    } else {
      ::unsetenv("JPM_THREADS");
    }
    return out;
  };
  for (const auto* threads : {"1", "8"}) {
    SCOPED_TRACE(std::string("threads ") + threads);
    const auto sweep = sweep_at(threads);
    ASSERT_EQ(sweep.size(), 1u);
    ASSERT_EQ(sweep[0].outcomes.size(), roster.size());
    for (std::size_t j = 0; j < roster.size(); ++j) {
      SCOPED_TRACE(roster[j].name);
      expect_bit_identical(references[j], sweep[0].outcomes[j].metrics);
      if (roster[j].name == always_on_policy().name) {
        expect_bit_identical(references[j], sweep[0].baseline);
      }
    }
  }
}

}  // namespace
}  // namespace jpm::sim
