// Event wire formats for the streaming daemon (jpm serve).
//
// Two self-describing encodings of the same StreamEvent record:
//
//   * JSONL — one JSON object per line, human-writable:
//       {"t": 12.5, "page": 42, "write": false}
//     "t" (seconds) and "page" are required; "write" defaults to false;
//     other keys are ignored. Blank lines and lines starting with '#' are
//     skipped. The writer emits one canonical line,
//       {"t":12.5,"page":42}  plus ,"start":true and/or ,"write":true
//     which the reader decodes with a byte scanner; any other line (and
//     any canonical line whose values fail a check) goes to the general
//     JSON parser, the one source of decode errors.
//
//   * Binary — length-prefixed little-endian records for high-rate pipes:
//       u32 payload_len (>= 17) | f64 time_s | u64 page | u8 flags | ...
//     Readers consume the first 17 payload bytes and skip the rest, so the
//     record can grow without breaking old readers. `flags` uses the trace
//     flag bits (workload::kTraceFlagWrite).
//
// EventReader auto-detects the format from the first byte of the stream
// ('{', '#', or whitespace means JSONL) unless one is forced. Decoding
// errors are reported with a byte/line position, never thrown: the CLI
// turns them into a path-named non-zero exit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "jpm/stream/ring.h"

namespace jpm::stream {

enum class WireFormat { kAuto, kJsonl, kBinary };

// Parses "auto" / "jsonl" / "binary"; returns false on an unknown name.
bool wire_format_from_name(const std::string& name, WireFormat* out);
const char* wire_format_name(WireFormat format);

class EventReader {
 public:
  enum class Status { kEvent, kEndOfStream, kError };

  explicit EventReader(std::istream& in, WireFormat format = WireFormat::kAuto);

  // Reads the next event. kError leaves a position-naming message in
  // error(); the reader is then spent (further calls keep returning kError).
  Status next(StreamEvent* out);
  const std::string& error() const { return error_; }
  // Format in effect after auto-detection (kAuto until the first byte).
  WireFormat format() const { return format_; }

 private:
  Status fail(const std::string& message);
  Status next_jsonl(StreamEvent* out);
  Status parse_jsonl(StreamEvent* out);
  Status next_binary(StreamEvent* out);

  std::istream& in_;
  WireFormat format_;
  std::uint64_t line_ = 0;    // JSONL lines consumed
  std::uint64_t record_ = 0;  // binary records consumed
  std::string text_;          // the current JSONL line, reused across calls
  std::string error_;
};

// Appends one event in the given concrete format (kAuto is an error). The
// JSONL record is t, page and write: the request-start bit travels only in
// the binary flags byte.
void write_event(std::ostream& out, const StreamEvent& event,
                 WireFormat format);

// Appends one canonical JSONL line: "start" and "write" appear for the
// trace flag bits set in `flags`. `jpm trace cat` writes trace rows with it.
void write_jsonl_event(std::ostream& out, double time_s, std::uint64_t page,
                       std::uint8_t flags);

}  // namespace jpm::stream
