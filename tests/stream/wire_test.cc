// Wire-format tests: JSONL and binary round-trips through write_event /
// EventReader, auto-detection, skip rules, forward-compatible binary
// records, position-naming decode errors, and a differential check of
// EventReader's JSONL decoding against a reference decoder built on
// json::parse alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/stream/wire.h"
#include "jpm/util/json.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

namespace jpm::stream {
namespace {

StreamEvent ev(double t, std::uint64_t page, std::uint8_t flags = 0) {
  StreamEvent e;
  e.time_s = t;
  e.page = page;
  e.flags = flags;
  return e;
}

std::vector<StreamEvent> read_all(std::istream& in, WireFormat format,
                                  std::string* error = nullptr) {
  EventReader reader(in, format);
  std::vector<StreamEvent> events;
  StreamEvent e;
  for (;;) {
    const auto status = reader.next(&e);
    if (status == EventReader::Status::kEvent) {
      events.push_back(e);
      continue;
    }
    if (status == EventReader::Status::kError && error != nullptr) {
      *error = reader.error();
    }
    return events;
  }
}

void expect_round_trip(WireFormat format) {
  const std::vector<StreamEvent> in = {
      ev(0.0, 0), ev(1.25, 42, workload::kTraceFlagWrite),
      ev(1.25, 7), ev(1e6, (1ull << 40) + 3)};
  std::stringstream buf;
  for (const auto& e : in) write_event(buf, e, format);
  const auto out = read_all(buf, format);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].time_s, in[i].time_s) << i;
    EXPECT_EQ(out[i].page, in[i].page) << i;
    EXPECT_EQ(out[i].flags, in[i].flags) << i;
  }
}

TEST(WireTest, JsonlRoundTripIsExact) { expect_round_trip(WireFormat::kJsonl); }

TEST(WireTest, BinaryRoundTripIsExact) {
  expect_round_trip(WireFormat::kBinary);
}

TEST(WireTest, AutoDetectsJsonlFromLeadingBrace) {
  std::stringstream buf;
  write_event(buf, ev(2.0, 5), WireFormat::kJsonl);
  EventReader reader(buf, WireFormat::kAuto);
  StreamEvent e;
  ASSERT_EQ(reader.next(&e), EventReader::Status::kEvent);
  EXPECT_EQ(reader.format(), WireFormat::kJsonl);
  EXPECT_EQ(e.page, 5u);
}

TEST(WireTest, AutoDetectsBinaryFromLengthPrefix) {
  std::stringstream buf;
  write_event(buf, ev(2.0, 5), WireFormat::kBinary);
  EventReader reader(buf, WireFormat::kAuto);
  StreamEvent e;
  ASSERT_EQ(reader.next(&e), EventReader::Status::kEvent);
  EXPECT_EQ(reader.format(), WireFormat::kBinary);
  EXPECT_EQ(e.page, 5u);
}

TEST(WireTest, JsonlSkipsBlankAndCommentLines) {
  std::stringstream buf("\n# synthetic trace\n{\"t\": 1, \"page\": 2}\n\n");
  const auto events = read_all(buf, WireFormat::kJsonl);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time_s, 1.0);
  EXPECT_EQ(events[0].page, 2u);
}

TEST(WireTest, JsonlWriteFlagMapsToTraceFlagBit) {
  std::stringstream buf("{\"t\": 1, \"page\": 2, \"write\": true}\n");
  const auto events = read_all(buf, WireFormat::kJsonl);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].flags & workload::kTraceFlagWrite,
            workload::kTraceFlagWrite);
}

TEST(WireTest, JsonlErrorNamesTheLine) {
  std::stringstream buf("{\"t\": 1, \"page\": 2}\n{\"t\": oops}\n");
  std::string error;
  const auto events = read_all(buf, WireFormat::kJsonl, &error);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(WireTest, JsonlRejectsNegativeTime) {
  std::stringstream buf("{\"t\": -1, \"page\": 2}\n");
  std::string error;
  const auto events = read_all(buf, WireFormat::kJsonl, &error);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(error.empty());
}

TEST(WireTest, JsonlRejectsPagesPastU64) {
  // 1e400 overflows to infinity and 1.9e19 is past 2^64: neither may reach
  // the double -> u64 conversion.
  for (const char* page : {"1e400", "1.9e19", "18446744073709551616"}) {
    SCOPED_TRACE(page);
    std::stringstream buf(std::string("{\"t\":0,\"page\":1}\n") +
                          "{\"t\":0,\"page\":" + page + "}\n");
    std::string error;
    const auto events = read_all(buf, WireFormat::kJsonl, &error);
    EXPECT_EQ(events.size(), 1u);
    EXPECT_EQ(error, "line 2: \"page\" must be below 2^64");
  }
  // The largest double below 2^64 is still a page.
  std::stringstream buf("{\"t\":0,\"page\":18446744073709549568}\n");
  const auto events = read_all(buf, WireFormat::kJsonl);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].page, 18446744073709549568ull);
}

TEST(WireTest, JsonlEventWriterAddsTheStartKey) {
  std::stringstream buf;
  write_jsonl_event(buf, 0.5, 7,
                    workload::kTraceFlagStart | workload::kTraceFlagWrite);
  write_jsonl_event(buf, 1.0, 8, workload::kTraceFlagStart);
  write_jsonl_event(buf, 1.5, 9, 0);
  EXPECT_EQ(buf.str(),
            "{\"t\":0.5,\"page\":7,\"start\":true,\"write\":true}\n"
            "{\"t\":1,\"page\":8,\"start\":true}\n"
            "{\"t\":1.5,\"page\":9}\n");
  // The stream record keeps only the write bit.
  std::stringstream stream;
  write_event(stream,
              ev(0.5, 7, workload::kTraceFlagStart | workload::kTraceFlagWrite),
              WireFormat::kJsonl);
  EXPECT_EQ(stream.str(), "{\"t\":0.5,\"page\":7,\"write\":true}\n");
}

// ---- differential check against a json::parse reference ------------------

struct Decoded {
  std::vector<StreamEvent> events;
  std::string error;  // "" when the stream ended cleanly
};

// The JSONL decode rules spelled out on json::parse alone: line splitting,
// CR strip, skip rules, the field checks and their messages.
Decoded reference_decode(const std::string& text) {
  Decoded out;
  std::uint64_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::string where = "line " + std::to_string(line_no) + ": ";
    util::json::Value v;
    std::string err;
    if (!util::json::parse(line, &v, &err)) {
      out.error = where + err;
      return out;
    }
    if (!v.is_object()) {
      out.error = where + "event must be a JSON object";
      return out;
    }
    const util::json::Value* t = v.as_object().find("t");
    const util::json::Value* page = v.as_object().find("page");
    const util::json::Value* write = v.as_object().find("write");
    std::string bad;
    if (t == nullptr || !t->is_number()) {
      bad = "missing numeric field \"t\"";
    } else if (page == nullptr || !page->is_number()) {
      bad = "missing numeric field \"page\"";
    } else if (!std::isfinite(t->as_number()) || t->as_number() < 0.0) {
      bad = "\"t\" must be finite and non-negative";
    } else if (page->as_number() < 0.0) {
      bad = "\"page\" must be non-negative";
    } else if (!(page->as_number() < 18446744073709551616.0)) {
      bad = "\"page\" must be below 2^64";
    } else if (write != nullptr && !write->is_bool()) {
      bad = "\"write\" must be a boolean";
    }
    if (!bad.empty()) {
      out.error = where + bad;
      return out;
    }
    const bool is_write = write != nullptr && write->as_bool();
    out.events.push_back(
        ev(t->as_number(), static_cast<std::uint64_t>(page->as_number()),
           is_write ? workload::kTraceFlagWrite : 0));
  }
  return out;
}

Decoded reader_decode(const std::string& text) {
  std::stringstream in(text);
  Decoded out;
  out.events = read_all(in, WireFormat::kJsonl, &out.error);
  return out;
}

std::uint64_t bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

void expect_same_decode(const std::string& text) {
  const Decoded want = reference_decode(text);
  const Decoded got = reader_decode(text);
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(bits(got.events[i].time_s), bits(want.events[i].time_s)) << i;
    EXPECT_EQ(got.events[i].page, want.events[i].page) << i;
    EXPECT_EQ(got.events[i].flags, want.events[i].flags) << i;
  }
}

TEST(WireTest, JsonlDecodeMatchesReferenceOnSynthesizedStreams) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = 64ull << 20;
  w.byte_rate = 2e6;
  w.duration_s = 600.0;
  w.page_bytes = 64 << 10;
  w.write_fraction = 0.3;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    w.seed = seed;
    // The `jpm synth` stream, and the `jpm trace cat` rows (with "start").
    std::stringstream synth;
    std::stringstream cat;
    workload::TraceGenerator gen(w);
    std::size_t count = 0;
    while (auto e = gen.next()) {
      write_event(synth, ev(e->time_s, e->page, workload::trace_flags(*e)),
                  WireFormat::kJsonl);
      write_jsonl_event(cat, e->time_s, e->page, workload::trace_flags(*e));
      ++count;
    }
    ASSERT_GT(count, 1000u);
    expect_same_decode(synth.str());
    expect_same_decode(cat.str());
  }
}

TEST(WireTest, JsonlDecodeMatchesReferenceOnHandCorpus) {
  const char* const corpus[] = {
      // Canonical and its flag forms.
      "{\"t\":1,\"page\":2}",
      "{\"t\":1.5,\"page\":2,\"write\":true}",
      "{\"t\":1.5,\"page\":2,\"start\":true}",
      "{\"t\":1.5,\"page\":2,\"start\":true,\"write\":true}",
      "{\"t\":1.5,\"page\":2,\"write\":true,\"start\":true}",
      "{\"t\":1.5,\"page\":2,\"write\":false}",
      "{\"t\":1.5,\"page\":2,\"start\":false}",
      "{\"t\":1.5,\"page\":2,\"write\":1}",
      "{\"t\":1.5,\"page\":2,\"write\":\"true\"}",
      // Whitespace, CRLF, comments, blank lines.
      "{ \"t\": 1, \"page\": 2 }",
      "  {\"t\":1,\"page\":2}",
      "\t{\"t\":1,\"page\":2}",
      "{\"t\":1,\"page\":2}  ",
      "{\"t\":1 ,\"page\":2}",
      "{\"t\":1,\"page\":2}\r",
      "{\"t\":1,\"page\":2,\"write\":true}\r",
      "{\"t\":1,\"page\":2}\r\r",
      "# a comment",
      "",
      "   ",
      "\r",
      // Reordered, duplicate and extra keys.
      "{\"page\":2,\"t\":1}",
      "{\"t\":1,\"page\":2,\"t\":3}",
      "{\"t\":1,\"page\":2,\"page\":5}",
      "{\"t\":1,\"page\":2,\"write\":true,\"write\":false}",
      "{\"t\":1,\"page\":2,\"x\":5}",
      "{\"t\":1,\"page\":2,\"start\":true,\"write\":true,\"x\":[1]}",
      "{\"x\":0,\"t\":1,\"page\":2}",
      // Numbers: signs, exponents, zeros, range.
      "{\"t\":+1,\"page\":2}",
      "{\"t\":1,\"page\":+2}",
      "{\"t\":1e,\"page\":2}",
      "{\"t\":1,\"page\":2e}",
      "{\"t\":1e+,\"page\":2}",
      "{\"t\":-0,\"page\":2}",
      "{\"t\":1,\"page\":-0}",
      "{\"t\":-0.0,\"page\":-0.0}",
      "{\"t\":1e-400,\"page\":2}",
      "{\"t\":-1e-400,\"page\":1e-400}",
      "{\"t\":4e-320,\"page\":2}",
      "{\"t\":1e400,\"page\":2}",
      "{\"t\":1,\"page\":1e400}",
      "{\"t\":1,\"page\":-1e400}",
      "{\"t\":1,\"page\":1.9e19}",
      "{\"t\":1,\"page\":18446744073709551615}",
      "{\"t\":1,\"page\":18446744073709549568}",
      "{\"t\":1,\"page\":9007199254740993}",
      "{\"t\":12345678901234567,\"page\":2}",
      "{\"t\":0.12345678901234567,\"page\":2}",
      "{\"t\":1234.5678901234567,\"page\":2}",
      "{\"t\":1.7976931348623157e308,\"page\":2}",
      "{\"t\":1E2,\"page\":1E1}",
      "{\"t\":1e+2,\"page\":2}",
      "{\"t\":01,\"page\":002}",
      "{\"t\":.5,\"page\":2}",
      "{\"t\":5.,\"page\":2}",
      "{\"t\":1.5.2,\"page\":2}",
      "{\"t\":-,\"page\":2}",
      "{\"t\":--1,\"page\":2}",
      "{\"t\":1-,\"page\":2}",
      "{\"t\":-1,\"page\":2}",
      "{\"t\":1,\"page\":-1}",
      "{\"t\":1,\"page\":-0.5}",
      "{\"t\":1,\"page\":2.75}",
      "{\"t\":1,\"page\":0x10}",
      "{\"t\":inf,\"page\":2}",
      "{\"t\":-inf,\"page\":2}",
      "{\"t\":nan,\"page\":2}",
      "{\"t\":1,\"page\":infinity}",
      "{\"t\":\"1\",\"page\":2}",
      "{\"t\":1,\"page\":null}",
      // Structure and trailing bytes.
      "{\"t\":1,\"page\":2}x",
      "{\"t\":1,\"page\":2}}",
      "{\"t\":1,\"page\":2}{\"t\":1,\"page\":2}",
      "{\"t\":1,\"page\":2,}",
      "{\"t\":1,,\"page\":2}",
      "{\"t\":1,\"page\":2",
      "{\"t\":1,\"page\"",
      "{\"t\":1}",
      "{\"page\":2}",
      "{}",
      "[1,2]",
      "42",
      "not json",
      "{\"t\":1,\"page\":2,\"start\":tru}",
      "{\"t\":1,\"page\":2,\"write\":true,}",
  };
  for (const char* line : corpus) {
    SCOPED_TRACE(std::string("line: ") + line);
    // Alone, after a good line (the error names line 2), and before one.
    expect_same_decode(std::string(line));
    expect_same_decode(std::string("{\"t\":0,\"page\":0}\n") + line + "\n");
    expect_same_decode(std::string(line) + "\n{\"t\":9,\"page\":9}\n");
  }
}

TEST(WireTest, BinaryReaderSkipsRecordExtensionBytes) {
  // A future writer may append payload fields; a 17-byte reader must
  // consume the length it was given and keep decoding.
  std::stringstream buf;
  write_event(buf, ev(1.0, 1), WireFormat::kBinary);
  // Splice 4 extension bytes into the second record by patching its length.
  std::string rec;
  {
    std::stringstream one;
    write_event(one, ev(2.0, 2), WireFormat::kBinary);
    rec = one.str();
  }
  rec[0] = static_cast<char>(static_cast<unsigned char>(rec[0]) + 4);
  rec += std::string("\xde\xad\xbe\xef", 4);
  buf << rec;
  write_event(buf, ev(3.0, 3), WireFormat::kBinary);

  const auto events = read_all(buf, WireFormat::kBinary);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].page, 2u);
  EXPECT_EQ(events[2].page, 3u);
}

TEST(WireTest, BinaryErrorNamesTheRecord) {
  std::stringstream buf;
  write_event(buf, ev(1.0, 1), WireFormat::kBinary);
  buf << std::string("\x01\x00\x00\x00", 4);  // length 1 < the 17-byte floor
  std::string error;
  const auto events = read_all(buf, WireFormat::kBinary, &error);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_NE(error.find("record 2"), std::string::npos) << error;
}

TEST(WireTest, TruncatedBinaryPayloadIsAnError) {
  std::stringstream buf;
  std::string rec;
  {
    std::stringstream one;
    write_event(one, ev(1.0, 1), WireFormat::kBinary);
    rec = one.str();
  }
  buf << rec.substr(0, rec.size() - 3);  // cut mid-payload
  std::string error;
  const auto events = read_all(buf, WireFormat::kBinary, &error);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(error.empty());
}

TEST(WireTest, FormatNamesRoundTrip) {
  WireFormat f = WireFormat::kAuto;
  EXPECT_TRUE(wire_format_from_name("jsonl", &f));
  EXPECT_EQ(f, WireFormat::kJsonl);
  EXPECT_TRUE(wire_format_from_name("binary", &f));
  EXPECT_EQ(f, WireFormat::kBinary);
  EXPECT_TRUE(wire_format_from_name("auto", &f));
  EXPECT_EQ(f, WireFormat::kAuto);
  EXPECT_FALSE(wire_format_from_name("csv", &f));
  EXPECT_STREQ(wire_format_name(WireFormat::kJsonl), "jsonl");
  EXPECT_STREQ(wire_format_name(WireFormat::kBinary), "binary");
}

}  // namespace
}  // namespace jpm::stream
