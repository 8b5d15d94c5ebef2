// Test helper: builds a Trace from a hand-written event list plus the
// derived fields, so a test states its events one per line.
#pragma once

#include <cstdint>
#include <vector>

#include "jpm/workload/trace.h"

namespace jpm::workload {

inline Trace trace_from_events(const std::vector<TraceEvent>& events,
                               std::uint64_t page_bytes,
                               std::uint64_t total_pages, double duration_s) {
  Trace t;
  t.reserve(events.size());
  for (const auto& e : events) t.push_back(e);
  t.page_bytes = page_bytes;
  t.total_pages = total_pages;
  t.duration_s = duration_s;
  return t;
}

}  // namespace jpm::workload
