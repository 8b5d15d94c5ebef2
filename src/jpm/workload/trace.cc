#include "jpm/workload/trace.h"

#include <algorithm>
#include <unordered_set>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "jpm/util/check.h"

namespace jpm::workload {

TraceExtent validate_trace(const Trace& trace) {
  JPM_CHECK_MSG(!trace.empty(), "replay trace is empty");
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
  JPM_CHECK_MSG(sorted, "replay trace must be time-sorted");
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
  JPM_CHECK_MSG(max_page < extent.total_pages,
                "trace pages exceed the declared data-set size");
  return extent;
}

Trace trace_from_events(const std::vector<TraceEvent>& events,
                        std::uint64_t page_bytes, std::uint64_t total_pages,
                        double duration_s) {
  Trace t;
  t.reserve(events.size());
  for (const auto& e : events) t.push_back(e);
  t.page_bytes = page_bytes;
  t.total_pages = total_pages;
  t.duration_s = duration_s;
  return t;
}

TraceSummary summarize(const std::vector<TraceEvent>& trace,
                       std::uint64_t page_bytes) {
  TraceSummary s;
  std::unordered_set<std::uint64_t> pages;
  pages.reserve(trace.size() / 4 + 1);
  for (const auto& e : trace) {
    ++s.events;
    if (e.request_start) ++s.requests;
    if (e.is_write) ++s.writes;
    pages.insert(e.page);
  }
  s.distinct_pages = pages.size();
  if (!trace.empty()) s.duration_s = trace.back().time_s - trace.front().time_s;
  s.bytes_accessed =
      static_cast<double>(s.events) * static_cast<double>(page_bytes);
  return s;
}

TraceSummary summarize(const Trace& trace) {
  TraceSummary s;
  std::unordered_set<std::uint64_t> pages;
  pages.reserve(trace.size() / 4 + 1);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ++s.events;
    if (trace.flags[i] & kTraceFlagStart) ++s.requests;
    if (trace.flags[i] & kTraceFlagWrite) ++s.writes;
    pages.insert(trace.pages[i]);
  }
  s.distinct_pages = pages.size();
  if (!trace.empty()) s.duration_s = trace.times.back() - trace.times.front();
  s.bytes_accessed =
      static_cast<double>(s.events) * static_cast<double>(trace.page_bytes);
  return s;
}

}  // namespace jpm::workload
