#include "jpm/workload/trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "jpm/util/units.h"
#include "trace_from_events.h"

namespace jpm::workload {
namespace {

// `n` sorted single-page requests at t = 1, 2, ..., n on pages 0..n-1.
Trace ramp(std::size_t n, std::uint64_t total_pages, double duration_s) {
  std::vector<TraceEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back({static_cast<double>(i + 1), i, true});
  }
  return trace_from_events(events, 64 * kKiB, total_pages, duration_s);
}

// The message validate_trace fails with, or "" when it accepts the trace.
std::string rejection(const Trace& trace) {
  try {
    validate_trace(trace);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

const char kEmpty[] = "replay trace is empty";
const char kUnsorted[] = "replay trace must be time-sorted";
const char kPages[] = "trace pages exceed the declared data-set size";

TEST(TraceValidateTest, EmptyTraceIsRejected) {
  EXPECT_NE(rejection(ramp(0, 10, 100.0)).find(kEmpty), std::string::npos);
}

TEST(TraceValidateTest, UnsortedTimesAreRejectedAnywhere) {
  // Lengths and swap positions cover the two-lane vector body, its odd
  // tail, and both ends.
  for (const std::size_t n : {2u, 3u, 8u, 9u, 1001u}) {
    for (std::size_t at = 1; at < n; at += (n > 20 ? 97 : 1)) {
      SCOPED_TRACE("n=" + std::to_string(n) + " at=" + std::to_string(at));
      Trace t = ramp(n, n, 0.0);
      t.times[at] = t.times[at - 1] - 0.5;
      EXPECT_NE(rejection(t).find(kUnsorted), std::string::npos);
    }
  }
  Trace negative = ramp(4, 4, 0.0);
  negative.times[0] = -1.0;
  EXPECT_NE(rejection(negative).find(kUnsorted), std::string::npos);
}

TEST(TraceValidateTest, EqualTimesAreSorted) {
  Trace t = ramp(5, 5, 0.0);
  for (double& time : t.times) time = 3.0;
  EXPECT_EQ(rejection(t), "");
}

TEST(TraceValidateTest, NaNTimeIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {1u, 2u, 7u, 64u}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " at=" + std::to_string(at));
      Trace t = ramp(n, n, 100.0);
      t.times[at] = nan;
      EXPECT_NE(rejection(t).find(kUnsorted), std::string::npos);
    }
  }
}

TEST(TraceValidateTest, PageAtOrAboveTotalPagesIsRejected) {
  for (const std::size_t at : {std::size_t{0}, std::size_t{5}, std::size_t{9}}) {
    SCOPED_TRACE("at=" + std::to_string(at));
    Trace t = ramp(10, 50, 0.0);
    t.pages[at] = 50;  // one past the last page
    EXPECT_NE(rejection(t).find(kPages), std::string::npos);
    t.pages[at] = 49;  // the last page
    EXPECT_EQ(rejection(t), "");
  }
}

TEST(TraceValidateTest, RejectionNamesTheFirstOffendingEvent) {
  Trace unsorted = ramp(10, 10, 0.0);
  unsorted.times[6] = 2.5;  // before event 5's t=6
  unsorted.times[8] = 1.0;
  EXPECT_EQ(rejection(unsorted),
            std::string(kUnsorted) +
                ": event 6 (t=2.5, page 6) is not at or after t=6");

  Trace negative = ramp(3, 3, 0.0);
  negative.times[0] = -0.25;
  EXPECT_EQ(rejection(negative),
            std::string(kUnsorted) +
                ": event 0 (t=-0.25, page 0) is not at or after t=0");

  Trace nan = ramp(3, 3, 0.0);
  nan.times[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(rejection(nan),
            std::string(kUnsorted) +
                ": event 1 (t=nan, page 1) is not at or after t=1");

  Trace past = ramp(10, 50, 0.0);
  past.pages[3] = 70;
  past.pages[7] = 50;
  EXPECT_EQ(rejection(past),
            std::string(kPages) +
                ": event 3 (t=4, page 70) is not below total_pages=50");
}

TEST(TraceValidateTest, DerivesDurationAndTotalPagesLeftZero) {
  const TraceExtent derived = validate_trace(ramp(10, 0, 0.0));
  EXPECT_EQ(derived.duration_s, 10.0);  // the last event time
  EXPECT_EQ(derived.total_pages, 10u);  // the largest page + 1

  // Declared values win, including a duration shorter than the last event.
  const TraceExtent declared = validate_trace(ramp(10, 64, 7.5));
  EXPECT_EQ(declared.duration_s, 7.5);
  EXPECT_EQ(declared.total_pages, 64u);
}

}  // namespace
}  // namespace jpm::workload
