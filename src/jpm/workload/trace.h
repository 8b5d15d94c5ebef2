// Disk-cache access trace: the stream every power-management method consumes.
#pragma once

#include <cstdint>
#include <vector>

namespace jpm::workload {

// One page-granular access to the disk cache.
struct TraceEvent {
  double time_s = 0.0;
  std::uint64_t page = 0;
  // True for the first page of a request: a disk read for this page pays seek
  // and rotation; subsequent pages of the same request are sequential.
  bool request_start = false;
  // Write access: the page is overwritten in the cache (no disk read) and
  // becomes dirty; a flush daemon writes it back later.
  bool is_write = false;
};

// Flag bits of Trace::flags (matching the binary trace format's flag byte).
inline constexpr std::uint8_t kTraceFlagStart = 1u << 0;
inline constexpr std::uint8_t kTraceFlagWrite = 1u << 1;

// The one TraceEvent -> flag-bits encoding every trace sink shares.
inline std::uint8_t trace_flags(const TraceEvent& e) {
  return static_cast<std::uint8_t>((e.request_start ? kTraceFlagStart : 0) |
                                   (e.is_write ? kTraceFlagWrite : 0));
}

// A fully materialized, immutable trace: synthesized (or loaded) once and
// then shared read-only by any number of concurrent engine replays. It is
// the only materialized event container; TraceEvent is one event in flight
// (a generator's output, a sink's input). The derived fields are filled by
// synthesize_trace (synthesizer.h) so a replay is bit-identical to a
// generator-driven run of the same config.
//
// Events are stored structure-of-arrays: the replay hot loop streams
// timestamps, page ids, and op flags as independent densely packed lanes
// (the batched engine reads a run of each per batch), instead of striding
// through 24-byte AoS records for fields it may not need. All three lanes
// always have equal length and share one index.
struct Trace {
  std::vector<double> times;          // time-sorted
  std::vector<std::uint64_t> pages;
  std::vector<std::uint8_t> flags;    // kTraceFlagStart | kTraceFlagWrite
  std::uint64_t page_bytes = 0;
  std::uint64_t total_pages = 0;   // data-set size in pages (linear layout)
  double duration_s = 0.0;         // simulated duration

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
  void reserve(std::size_t n) {
    times.reserve(n);
    pages.reserve(n);
    flags.reserve(n);
  }
  void push_back(const TraceEvent& e) {
    times.push_back(e.time_s);
    pages.push_back(e.page);
    flags.push_back(trace_flags(e));
  }
};

// The span a replay of a trace covers: its declared duration and data-set
// size, each derived from the events where the trace leaves it 0.
struct TraceExtent {
  double duration_s = 0.0;
  std::uint64_t total_pages = 0;
};

// Checks a trace before replay and returns its extent: duration_s, or the
// last event time when 0; total_pages, or the largest page + 1 when 0.
// Throws std::invalid_argument on an empty trace, on times that are
// unsorted, negative or NaN, and on pages at or above total_pages; the
// message names the first offending event with its time and page. The one extent and validity rule:
// in-memory replay and `jpm trace pack` both apply it. One pass over the
// time and page lanes: call it once per trace, not once per replay of a
// shared trace.
TraceExtent validate_trace(const Trace& trace);

}  // namespace jpm::workload
