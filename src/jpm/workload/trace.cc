#include "jpm/workload/trace.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "jpm/util/check.h"

namespace jpm::workload {

namespace {

// Shortest round-trip text of a time, "nan" included.
std::string time_text(double t) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, t).ptr);
}

std::string event_text(const Trace& trace, std::size_t i) {
  return "event " + std::to_string(i) + " (t=" + time_text(trace.times[i]) +
         ", page " + std::to_string(trace.pages[i]) + ")";
}

// The failure path of validate_trace: a plain rescan for the first
// offending event, kept out of line so the vector scans stay tight.
[[noreturn, gnu::cold, gnu::noinline]] void reject_trace(
    const Trace& trace, std::uint64_t total_pages) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double floor = i == 0 ? 0.0 : trace.times[i - 1];
    if (!(trace.times[i] >= floor)) {
      throw std::invalid_argument(
          "replay trace must be time-sorted: " + event_text(trace, i) +
          " is not at or after t=" + time_text(floor));
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.pages[i] >= total_pages) {
      throw std::invalid_argument(
          "trace pages exceed the declared data-set size: " +
          event_text(trace, i) + " is not below total_pages=" +
          std::to_string(total_pages));
    }
  }
  JPM_CHECK_MSG(false, "reject_trace found no offending event");
}

}  // namespace

TraceExtent validate_trace(const Trace& trace) {
  if (trace.empty()) throw std::invalid_argument("replay trace is empty");
  // Branchless validation scan (accumulate, check once): the per-element
  // CHECK's early-exit branch kept the compiler from vectorizing what is
  // otherwise a pure max/ordered reduction over the whole trace.
  const double* times = trace.times.data();
  const std::uint64_t* pages = trace.pages.data();
  const std::size_t count = trace.size();
  // >= (not !<) so a NaN timestamp fails the scan exactly as the
  // per-element CHECK did.
  bool sorted = times[0] >= 0.0;
  std::size_t i = 1;
#if defined(__SSE2__)
  // Two compares per vector op; a NaN makes cmple false, clearing its ok
  // bit, so the NaN behaviour above is preserved.
  __m128d ok = _mm_castsi128_pd(_mm_set1_epi32(-1));
  for (; i + 2 <= count; i += 2) {
    ok = _mm_and_pd(ok, _mm_cmple_pd(_mm_loadu_pd(times + i - 1),
                                     _mm_loadu_pd(times + i)));
  }
  sorted &= _mm_movemask_pd(ok) == 3;
#endif
  for (; i < count; ++i) sorted &= times[i] >= times[i - 1];
  // Four independent accumulators: a single max is a loop-carried chain
  // (SSE2 has no packed 64-bit max to lean on).
  std::uint64_t m0 = pages[0], m1 = 0, m2 = 0, m3 = 0;
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    m0 = std::max(m0, pages[j]);
    m1 = std::max(m1, pages[j + 1]);
    m2 = std::max(m2, pages[j + 2]);
    m3 = std::max(m3, pages[j + 3]);
  }
  for (; j < count; ++j) m0 = std::max(m0, pages[j]);
  const std::uint64_t max_page = std::max(std::max(m0, m1), std::max(m2, m3));
  // Events may trail slightly past the declared duration (the synthesizer
  // admits arrivals up to it and their pages follow); the run still closes
  // its books at the declared duration.
  TraceExtent extent{trace.duration_s, trace.total_pages};
  if (extent.duration_s == 0.0) extent.duration_s = trace.times.back();
  if (extent.total_pages == 0) extent.total_pages = max_page + 1;
  if (!sorted || max_page >= extent.total_pages) {
    reject_trace(trace, extent.total_pages);
  }
  return extent;
}

}  // namespace jpm::workload
