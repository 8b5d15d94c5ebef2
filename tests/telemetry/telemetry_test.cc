// Unit tests for the telemetry session, registries, and exporters, plus a
// multi-threaded emitter test sized for TSan (the per-thread ring claims to
// be data-race free; -DJPM_SANITIZE=thread checks the claim).
#include "jpm/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "jpm/telemetry/export.h"
#include "jpm/telemetry/registry.h"
#include "jpm/util/check.h"
#include "jpm/util/json.h"

namespace jpm::telemetry {
namespace {

// Every test tears the global session down even on assertion failure.
struct SessionGuard {
  explicit SessionGuard(const Options& options = {}) { start(options); }
  ~SessionGuard() {
    if (session_active()) stop();
  }
};

TEST(TelemetryCategoryTest, NamesAndMaskRoundTrip) {
  EXPECT_STREQ(category_name(Category::kEngine), "engine");
  EXPECT_STREQ(category_name(Category::kDisk), "disk");
  EXPECT_EQ(category_mask_from_string(""), 0xffffffffu);
  EXPECT_EQ(category_mask_from_string("all"), 0xffffffffu);
  EXPECT_EQ(category_mask_from_string("disk"),
            static_cast<std::uint32_t>(Category::kDisk));
  EXPECT_EQ(category_mask_from_string("engine,manager"),
            static_cast<std::uint32_t>(Category::kEngine) |
                static_cast<std::uint32_t>(Category::kManager));
  // Unknown names are ignored rather than rejected.
  EXPECT_EQ(category_mask_from_string("nonsense,disk"),
            static_cast<std::uint32_t>(Category::kDisk));
}

TEST(TelemetrySessionTest, DisabledByDefault) {
  EXPECT_FALSE(session_active());
  EXPECT_FALSE(enabled());
  EXPECT_EQ(begin_run("x"), nullptr);
  EXPECT_EQ(current_run(), nullptr);
  // Emitting without a session is a cheap no-op, not an error.
  TELEM_EVENT(kEngine, "noop", 1.0, {"v", 2.0});
  EXPECT_EQ(report_json(), "{}");
  EXPECT_FALSE(export_files("/tmp/jpm_telem_should_not_exist"));
}

TEST(TelemetrySessionTest, StartStopLifecycle) {
  {
    SessionGuard session;
    EXPECT_TRUE(session_active());
    EXPECT_TRUE(enabled());
    EXPECT_TRUE(category_enabled(Category::kDisk));
    EXPECT_THROW(start({}), CheckError);  // restart without stop is a bug
  }
  EXPECT_FALSE(session_active());
  EXPECT_FALSE(enabled());
}

TEST(TelemetrySessionTest, RuntimeCategoryMaskGatesEvents) {
  SessionGuard session(
      {.categories = static_cast<std::uint32_t>(Category::kDisk)});
  EXPECT_TRUE(category_enabled(Category::kDisk));
  EXPECT_FALSE(category_enabled(Category::kEngine));

  RunRecorder* rec = begin_run("gated");
  ASSERT_NE(rec, nullptr);
  {
    const ScopedRun scope(rec);
    TELEM_EVENT(kEngine, "masked_out", 1.0, {"v", 1.0});
    TELEM_EVENT(kDisk, "kept", 2.0, {"wait_s", 0.5});
  }
  ASSERT_EQ(rec->events().size(), 1u);
  EXPECT_STREQ(rec->events()[0].name, "kept");
  EXPECT_EQ(rec->events()[0].sim_time_s, 2.0);
  ASSERT_EQ(rec->events()[0].arg_count, 1);
  EXPECT_STREQ(rec->events()[0].args[0].key, "wait_s");
  EXPECT_EQ(rec->events()[0].args[0].value, 0.5);
}

TEST(TelemetrySessionTest, StreamsNumberInRegistrationOrder) {
  SessionGuard session;
  RunRecorder* a = begin_run("first");
  RunRecorder* b = begin_run("second");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->stream(), 0u);
  EXPECT_EQ(b->stream(), 1u);
  EXPECT_EQ(a->name(), "first");
}

TEST(TelemetrySessionTest, ScopedRunNestsAndFlushesInOrder) {
  SessionGuard session;
  RunRecorder* outer = begin_run("outer");
  RunRecorder* inner = begin_run("inner");
  {
    const ScopedRun s1(outer);
    EXPECT_EQ(current_run(), outer);
    TELEM_EVENT(kEngine, "o1", 1.0, {"v", 1.0});
    {
      const ScopedRun s2(inner);
      EXPECT_EQ(current_run(), inner);
      TELEM_EVENT(kEngine, "i1", 2.0, {"v", 2.0});
    }
    EXPECT_EQ(current_run(), outer);
    TELEM_EVENT(kEngine, "o2", 3.0, {"v", 3.0});
  }
  EXPECT_EQ(current_run(), nullptr);
  ASSERT_EQ(outer->events().size(), 2u);
  EXPECT_STREQ(outer->events()[0].name, "o1");
  EXPECT_STREQ(outer->events()[1].name, "o2");
  ASSERT_EQ(inner->events().size(), 1u);
  EXPECT_STREQ(inner->events()[0].name, "i1");
}

TEST(TelemetrySessionTest, EventsOnlyScopeTakesEventsButHidesRecorder) {
  SessionGuard session;
  RunRecorder* job = begin_run("job");
  {
    const ScopedRun outer(job);
    TELEM_EVENT(kEngine, "before", 1.0, {"v", 1.0});
    {
      const ScopedRun shared(job, /*events_only=*/true);
      EXPECT_EQ(current_run(), nullptr);  // no metrics or rows from here
      TELEM_EVENT(kManager, "inside", 2.0, {"v", 2.0});
    }
    EXPECT_EQ(current_run(), job);
    TELEM_EVENT(kEngine, "after", 3.0, {"v", 3.0});
  }
  ASSERT_EQ(job->events().size(), 3u);
  EXPECT_STREQ(job->events()[0].name, "before");
  EXPECT_STREQ(job->events()[1].name, "inside");
  EXPECT_STREQ(job->events()[2].name, "after");

  util::json::Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(report_json(), &report, &error)) << error;
  const auto* orphans = report.as_object().find("orphan_events");
  ASSERT_NE(orphans, nullptr);
  EXPECT_TRUE(orphans->as_array().empty());
}

TEST(TelemetrySessionTest, RingKeepsTailAndCountsDrops) {
  SessionGuard session({.ring_capacity = 4});
  RunRecorder* rec = begin_run("small_ring");
  {
    const ScopedRun scope(rec);
    for (int i = 0; i < 10; ++i) {
      TELEM_EVENT(kEngine, "tick", static_cast<double>(i), {"i", 1.0});
    }
  }
  ASSERT_EQ(rec->events().size(), 4u);
  EXPECT_EQ(rec->dropped_events(), 6u);
  // The *last* four events survive, in emission order.
  EXPECT_EQ(rec->events()[0].sim_time_s, 6.0);
  EXPECT_EQ(rec->events()[3].sim_time_s, 9.0);
}

TEST(TelemetrySessionTest, EventsOutsideAnyRunBecomeOrphans) {
  SessionGuard session;
  TELEM_EVENT(kSweep, "setup_note", 0.0, {"points", 3.0});

  util::json::Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(report_json(), &report, &error)) << error;
  const auto* orphans = report.as_object().find("orphan_events");
  ASSERT_NE(orphans, nullptr);
  ASSERT_EQ(orphans->as_array().size(), 1u);
  const auto& ev = orphans->as_array()[0].as_object();
  EXPECT_EQ(ev.find("name")->as_string(), "setup_note");
  EXPECT_EQ(ev.find("category")->as_string(), "sweep");
}

TEST(TelemetryRegistryTest, CountersGaugesTablesAccumulate) {
  SessionGuard session;
  RunRecorder* rec = begin_run("registry");
  rec->counter("spin_ups").add();
  rec->counter("spin_ups").add(4);
  rec->gauge("memory_units").set(8.0);
  rec->gauge("memory_units").set(2.0);
  rec->gauge("memory_units").set(5.0);
  auto& table = rec->table("periods", {"start_s", "end_s"});
  table.add_row({0.0, 300.0});
  table.add_row({300.0, 600.0});
  auto& hist = rec->histogram("idle_interval_s", buckets::idle_seconds());
  hist.add(0.5);

  EXPECT_EQ(rec->counter("spin_ups").value, 5u);
  EXPECT_EQ(rec->gauge("memory_units").value, 5.0);
  EXPECT_EQ(rec->gauge("memory_units").min, 2.0);
  EXPECT_EQ(rec->gauge("memory_units").max, 8.0);
  EXPECT_EQ(rec->gauge("memory_units").samples, 3u);
  EXPECT_EQ(rec->table("periods", {}).rows().size(), 2u);
  EXPECT_EQ(rec->histogram("idle_interval_s", buckets::idle_seconds()).count(),
            1u);
  // get-or-create returns stable pointers — the hot-path caching contract.
  EXPECT_EQ(&rec->counter("spin_ups"), &rec->counter("spin_ups"));
}

TEST(TelemetryRegistryTest, BucketPresetsAreWellFormed) {
  for (const auto& bounds : {buckets::idle_seconds(),
                             buckets::latency_seconds(),
                             buckets::spinup_seconds()}) {
    ASSERT_GE(bounds.size(), 2u);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_GT(bounds[i], bounds[i - 1]);
    }
  }
  // Closed-form layouts: independently computed bounds are identical, so
  // histograms merged across runs/threads always agree on shape.
  EXPECT_EQ(buckets::idle_seconds(), buckets::idle_seconds());
}

TEST(TelemetryExportTest, ReportContainsRegisteredStructure) {
  SessionGuard session;
  RunRecorder* rec = begin_run("export_run");
  {
    const ScopedRun scope(rec);
    rec->counter("requests").add(7);
    rec->gauge("depth").set(3.0);
    rec->histogram("lat", buckets::latency_seconds()).add(0.01);
    rec->table("periods", {"start_s", "end_s"}).add_row({0.0, 1.0});
    TELEM_EVENT(kEngine, "marker", 0.5, {"k", 1.0});
  }

  util::json::Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(report_json(), &report, &error)) << error;
  const auto& root = report.as_object();
  EXPECT_EQ(root.find("version")->as_number(), 1.0);
  const auto& runs = root.find("runs")->as_array();
  ASSERT_EQ(runs.size(), 1u);
  const auto& run = runs[0].as_object();
  EXPECT_EQ(run.find("name")->as_string(), "export_run");
  EXPECT_EQ(run.find("counters")->as_object().find("requests")->as_number(),
            7.0);
  EXPECT_EQ(run.find("gauges")->as_object().find("depth")->as_object()
                .find("last")->as_number(),
            3.0);
  EXPECT_TRUE(run.find("histograms")->as_object().contains("lat"));
  EXPECT_TRUE(run.find("tables")->as_object().contains("periods"));
  ASSERT_EQ(run.find("events")->as_array().size(), 1u);

  const std::string csv = periods_csv();
  EXPECT_NE(csv.find("run,start_s,end_s"), std::string::npos);
  EXPECT_NE(csv.find("export_run,0,1"), std::string::npos);

  // The Chrome trace is valid JSON with the required envelope.
  util::json::Value trace;
  ASSERT_TRUE(util::json::parse(trace_json(), &trace, &error)) << error;
  EXPECT_TRUE(trace.as_object().contains("traceEvents"));
}

// Many threads emitting into distinct streams concurrently: the ordering
// guarantee is per-stream, and under TSan this is the proof the hot path is
// race-free. Streams are registered serially first, as the runner does.
TEST(TelemetryConcurrencyTest, ParallelEmittersKeepPerStreamOrder) {
  constexpr int kThreads = 8;
  constexpr int kEvents = 5000;
  SessionGuard session({.ring_capacity = 2 * kEvents});

  std::vector<RunRecorder*> recs;
  for (int i = 0; i < kThreads; ++i) {
    recs.push_back(begin_run("worker" + std::to_string(i)));
  }
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([rec = recs[i]] {
      const ScopedRun scope(rec);
      for (int e = 0; e < kEvents; ++e) {
        TELEM_EVENT(kEngine, "work", static_cast<double>(e), {"n", 1.0});
        rec->counter("emitted").add();
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(recs[i]->events().size(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(recs[i]->dropped_events(), 0u);
    EXPECT_EQ(recs[i]->counter("emitted").value,
              static_cast<std::uint64_t>(kEvents));
    for (int e = 0; e < kEvents; ++e) {
      ASSERT_EQ(recs[i]->events()[e].sim_time_s, static_cast<double>(e));
    }
  }
}

}  // namespace
}  // namespace jpm::telemetry
