#include "jpm/stream/wire.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>

#include "jpm/util/check.h"
#include "jpm/util/json.h"
#include "jpm/workload/trace.h"

namespace jpm::stream {

namespace {

constexpr std::size_t kBinaryPayloadBytes = 17;  // f64 + u64 + u8

// The canonical JSONL line, in this order: kLineTime, the time, kLinePage,
// the page, then kLineStart and kLineWrite when those flags are set, then
// kLineEnd. The writer emits exactly these bytes and the reader's scanner
// accepts exactly them, so the fast form cannot drift from what is written.
constexpr std::string_view kLineTime = "{\"t\":";
constexpr std::string_view kLinePage = ",\"page\":";
constexpr std::string_view kLineStart = ",\"start\":true";
constexpr std::string_view kLineWrite = ",\"write\":true";
constexpr char kLineEnd = '}';

// 2^64, the first page number a u64 cannot hold.
constexpr double kPageLimit = 18446744073709551616.0;

// The wire is little-endian; encode/decode bytewise so the codec is
// host-endianness independent.
void put_u32(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

// One JSONL event's values, before the range checks.
struct JsonlFields {
  double t = 0.0;
  double page = 0.0;
  bool write = false;
};

// The value checks both JSONL decode paths apply; nullptr when they pass.
const char* check_fields(const JsonlFields& f) {
  if (!std::isfinite(f.t) || f.t < 0.0) {
    return "\"t\" must be finite and non-negative";
  }
  if (f.page < 0.0) return "\"page\" must be non-negative";
  if (!(f.page < kPageLimit)) return "\"page\" must be below 2^64";
  return nullptr;
}

void assign(const JsonlFields& f, StreamEvent* out) {
  out->time_s = f.t;
  out->page = static_cast<std::uint64_t>(f.page);
  out->flags = f.write ? workload::kTraceFlagWrite : 0;
}

bool skip_literal(const char*& p, const char* end, std::string_view literal) {
  if (static_cast<std::size_t>(end - p) < literal.size() ||
      std::memcmp(p, literal.data(), literal.size()) != 0) {
    return false;
  }
  p += literal.size();
  return true;
}

// Reads the number token json::parse would delimit (the longest run of
// [0-9.eE+-]); false unless std::from_chars converts the whole token. Both
// conversions round correctly, so an accepted token has json::parse's value.
bool scan_number(const char*& p, const char* end, double* out) {
  const char* stop = p;
  while (stop < end && ((*stop >= '0' && *stop <= '9') || *stop == '.' ||
                        *stop == 'e' || *stop == 'E' || *stop == '-' ||
                        *stop == '+')) {
    ++stop;
  }
  const auto res = std::from_chars(p, stop, *out);
  if (res.ec != std::errc() || res.ptr != stop) return false;
  p = stop;
  return true;
}

// Decodes a canonical line; false for any other line. "start" is read past
// and ignored, as the general path ignores it.
bool scan_canonical(const std::string& line, JsonlFields* f) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (!skip_literal(p, end, kLineTime) || !scan_number(p, end, &f->t) ||
      !skip_literal(p, end, kLinePage) || !scan_number(p, end, &f->page)) {
    return false;
  }
  skip_literal(p, end, kLineStart);
  f->write = skip_literal(p, end, kLineWrite);
  return end - p == 1 && *p == kLineEnd;
}

char* append(char* out, std::string_view literal) {
  std::memcpy(out, literal.data(), literal.size());
  return out + literal.size();
}

}  // namespace

bool wire_format_from_name(const std::string& name, WireFormat* out) {
  if (name == "auto") *out = WireFormat::kAuto;
  else if (name == "jsonl") *out = WireFormat::kJsonl;
  else if (name == "binary") *out = WireFormat::kBinary;
  else return false;
  return true;
}

const char* wire_format_name(WireFormat format) {
  switch (format) {
    case WireFormat::kAuto: return "auto";
    case WireFormat::kJsonl: return "jsonl";
    case WireFormat::kBinary: return "binary";
  }
  return "?";
}

EventReader::EventReader(std::istream& in, WireFormat format)
    : in_(in), format_(format) {}

EventReader::Status EventReader::fail(const std::string& message) {
  error_ = message;
  return Status::kError;
}

EventReader::Status EventReader::next(StreamEvent* out) {
  if (!error_.empty()) return Status::kError;
  if (format_ == WireFormat::kAuto) {
    const int first = in_.peek();
    if (first == std::istream::traits_type::eof()) return Status::kEndOfStream;
    const char c = static_cast<char>(first);
    format_ = (c == '{' || c == '#' || c == ' ' || c == '\t' || c == '\r' ||
               c == '\n')
                  ? WireFormat::kJsonl
                  : WireFormat::kBinary;
  }
  return format_ == WireFormat::kJsonl ? next_jsonl(out) : next_binary(out);
}

EventReader::Status EventReader::next_jsonl(StreamEvent* out) {
  for (;;) {
    if (!std::getline(in_, text_)) return Status::kEndOfStream;
    ++line_;
    // Strip a trailing CR (pipes fed from CRLF producers).
    if (!text_.empty() && text_.back() == '\r') text_.pop_back();
    JsonlFields fields;
    if (scan_canonical(text_, &fields) && check_fields(fields) == nullptr) {
      assign(fields, out);
      return Status::kEvent;
    }
    std::size_t start = 0;
    while (start < text_.size() &&
           (text_[start] == ' ' || text_[start] == '\t')) {
      ++start;
    }
    if (start == text_.size() || text_[start] == '#') continue;  // skip
    return parse_jsonl(out);
  }
}

// The general path: any JSON object with numeric "t" and "page". Every
// JSONL decode error comes from here.
EventReader::Status EventReader::parse_jsonl(StreamEvent* out) {
  const std::string where = "line " + std::to_string(line_) + ": ";
  util::json::Value v;
  std::string err;
  if (!util::json::parse(text_, &v, &err)) return fail(where + err);
  if (!v.is_object()) return fail(where + "event must be a JSON object");
  const util::json::Object& obj = v.as_object();
  const util::json::Value* t = obj.find("t");
  const util::json::Value* page = obj.find("page");
  if (t == nullptr || !t->is_number()) {
    return fail(where + "missing numeric field \"t\"");
  }
  if (page == nullptr || !page->is_number()) {
    return fail(where + "missing numeric field \"page\"");
  }
  JsonlFields fields;
  fields.t = t->as_number();
  fields.page = page->as_number();
  if (const char* bad = check_fields(fields)) return fail(where + bad);
  if (const util::json::Value* w = obj.find("write")) {
    if (!w->is_bool()) return fail(where + "\"write\" must be a boolean");
    fields.write = w->as_bool();
  }
  assign(fields, out);
  return Status::kEvent;
}

EventReader::Status EventReader::next_binary(StreamEvent* out) {
  unsigned char header[4];
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in_.gcount() == 0 && in_.eof()) return Status::kEndOfStream;
  if (in_.gcount() != sizeof(header)) {
    return fail("record " + std::to_string(record_ + 1) +
                ": truncated length prefix");
  }
  const std::uint32_t len = get_u32(header);
  if (len < kBinaryPayloadBytes || len > (1u << 20)) {
    return fail("record " + std::to_string(record_ + 1) +
                ": implausible payload length " + std::to_string(len));
  }
  unsigned char payload[kBinaryPayloadBytes];
  in_.read(reinterpret_cast<char*>(payload), sizeof(payload));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(payload))) {
    return fail("record " + std::to_string(record_ + 1) +
                ": truncated payload");
  }
  // Skip any extension bytes a newer writer appended.
  if (const std::streamsize extra = len - kBinaryPayloadBytes; extra > 0) {
    in_.ignore(extra);
    if (in_.gcount() != extra) {
      return fail("record " + std::to_string(record_ + 1) +
                  ": truncated payload");
    }
  }
  ++record_;
  const std::uint64_t time_bits = get_u64(payload);
  double t;
  static_assert(sizeof(t) == sizeof(time_bits));
  std::memcpy(&t, &time_bits, sizeof(t));
  if (!std::isfinite(t) || t < 0.0) {
    return fail("record " + std::to_string(record_) +
                ": time must be finite and non-negative");
  }
  out->time_s = t;
  out->page = get_u64(payload + 8);
  out->flags = payload[16];
  return Status::kEvent;
}

void write_event(std::ostream& out, const StreamEvent& event,
                 WireFormat format) {
  JPM_CHECK_MSG(format != WireFormat::kAuto,
                "write_event needs a concrete wire format");
  if (format == WireFormat::kJsonl) {
    write_jsonl_event(out, event.time_s, event.page,
                      event.flags & workload::kTraceFlagWrite);
    return;
  }
  unsigned char buf[4 + kBinaryPayloadBytes];
  put_u32(buf, kBinaryPayloadBytes);
  std::uint64_t time_bits;
  std::memcpy(&time_bits, &event.time_s, sizeof(time_bits));
  put_u64(buf + 4, time_bits);
  put_u64(buf + 12, event.page);
  buf[20] = event.flags;
  out.write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void write_jsonl_event(std::ostream& out, double time_s, std::uint64_t page,
                       std::uint8_t flags) {
  char line[kLineTime.size() + kLinePage.size() + kLineStart.size() +
            kLineWrite.size() + 2 * util::json::kMaxNumberChars + 2];
  char* p = append(line, kLineTime);
  p = util::json::format_number(time_s, p);
  p = append(p, kLinePage);
  // A page is a JSON number, a double, as in every report.
  p = util::json::format_number(static_cast<double>(page), p);
  if ((flags & workload::kTraceFlagStart) != 0) p = append(p, kLineStart);
  if ((flags & workload::kTraceFlagWrite) != 0) p = append(p, kLineWrite);
  *p++ = kLineEnd;
  *p++ = '\n';
  out.write(line, p - line);
}

}  // namespace jpm::stream
