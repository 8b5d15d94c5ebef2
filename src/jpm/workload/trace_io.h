// Trace persistence: save synthesized traces and load captured ones.
//
// Two formats live here:
//   * binary ("JPMT" header + packed records) — compact, lossless round trip;
//   * CSV ("time_s,page,request_start") — for interchange with external
//     tooling and hand-captured disk-cache traces.
// (The chunked, mmap-able "JPMC" format for large traces lives in
// jpm/tracefile/; load_trace recognizes its magic and points there.)
// Loading sniffs the format from the leading bytes — never the file
// extension — so a misnamed file fails with a named format error instead of
// a garbage parse. A reader rejects what it cannot decode with a
// std::invalid_argument naming the record, CSV line or byte offset; what
// the events mean (time order, pages within the data set) is
// workload::validate_trace's to check, as for every replayed trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "jpm/workload/trace.h"

namespace jpm::workload {

// Every reader and writer works on Trace lanes. Neither format carries the
// derived fields, so a loaded Trace has page_bytes/total_pages/duration_s
// zero for the caller to fill. Writers throw std::runtime_error when the
// stream fails.
void write_binary_trace(std::ostream& os, const Trace& trace);
Trace read_binary_trace(std::istream& is);

// The CSV row format: write_csv_header once, then write_csv_row per event
// (fixed-point times, 9 decimals). write_csv_trace is exactly that over a
// whole Trace; `jpm trace cat` streams the same rows chunk by chunk.
void write_csv_header(std::ostream& os);
void write_csv_row(std::ostream& os, double time_s, std::uint64_t page,
                   std::uint8_t flags);
void write_csv_trace(std::ostream& os, const Trace& trace);
Trace read_csv_trace(std::istream& is);

// On-disk trace flavors distinguishable from their leading bytes.
enum class TraceFormat {
  kBinary,   // "JPMT" magic (trace_io)
  kChunked,  // "JPMC" magic (jpm/tracefile)
  kCsv,      // printable text (header line or bare numbers)
};

// Peeks at the stream's first bytes and classifies them, restoring the read
// position. Throws std::invalid_argument naming `name` when the bytes match
// no known format (e.g. a truncated or misnamed binary file).
TraceFormat sniff_trace_format(std::istream& is, const std::string& name);

// File-path conveniences. Saving picks the format by extension (".csv" =
// CSV, anything else = JPMT binary); loading sniffs the content instead and
// rejects JPMC files with a pointer to jpm::tracefile (which owns the
// chunked reader). Loading throws std::invalid_argument prefixed with
// `path`; saving throws std::runtime_error.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace jpm::workload
