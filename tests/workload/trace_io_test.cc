#include "jpm/workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "jpm/workload/synthesizer.h"
#include "trace_from_events.h"

namespace jpm::workload {
namespace {

Trace sample_trace() {
  return trace_from_events(
      {
          {0.5, 100, true},
          {0.502, 101, false},
          {1.25, 7, true},
          {9.75, 100, true},
      },
      0, 0, 0.0);
}

TEST(TraceIoTest, BinaryRoundTrip) {
  std::stringstream ss;
  write_binary_trace(ss, sample_trace());
  const auto loaded = read_binary_trace(ss);
  const auto original = sample_trace();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.times[i], original.times[i]);
    EXPECT_EQ(loaded.pages[i], original.pages[i]);
    EXPECT_EQ(loaded.flags[i], original.flags[i]);
  }
}

TEST(TraceIoTest, CsvRoundTrip) {
  std::stringstream ss;
  write_csv_trace(ss, sample_trace());
  const auto loaded = read_csv_trace(ss);
  const auto original = sample_trace();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded.times[i], original.times[i], 1e-6);
    EXPECT_EQ(loaded.pages[i], original.pages[i]);
    EXPECT_EQ(loaded.flags[i], original.flags[i]);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream bin, csv;
  write_binary_trace(bin, Trace{});
  EXPECT_TRUE(read_binary_trace(bin).empty());
  write_csv_trace(csv, Trace{});
  EXPECT_TRUE(read_csv_trace(csv).empty());
}

TEST(TraceIoTest, RejectsGarbageBinary) {
  std::stringstream ss;
  ss << "definitely not a trace";
  EXPECT_THROW(read_binary_trace(ss), std::invalid_argument);
}

TEST(TraceIoTest, RejectsTruncatedBinary) {
  std::stringstream ss;
  write_binary_trace(ss, sample_trace());
  std::string data = ss.str();
  data.resize(data.size() - 10);
  std::stringstream truncated(data);
  EXPECT_THROW(read_binary_trace(truncated), std::invalid_argument);
}

TEST(TraceIoTest, RejectsCorruptHeaderCountBeforeAllocating) {
  // Declare an absurd record count over a tiny body: the reader must reject
  // it from the header bounds check (naming both counts), not attempt a
  // multi-gigabyte reserve or a long truncation loop.
  std::stringstream ss;
  write_binary_trace(ss, sample_trace());
  std::string data = ss.str();
  const std::uint64_t huge = 1ull << 60;
  std::memcpy(data.data() + 8, &huge, sizeof huge);  // count field at byte 8
  std::stringstream corrupt(data);
  try {
    read_binary_trace(corrupt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt trace header"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(huge)), std::string::npos);
    EXPECT_NE(what.find("only 4 fit"), std::string::npos);
  }
}

// Streams that cannot seek (pipes, sockets) skip the header bounds
// pre-check and rely on the per-record truncation error instead.
struct NonSeekableBuf : std::stringbuf {
  explicit NonSeekableBuf(const std::string& s)
      : std::stringbuf(s, std::ios::in) {}

 protected:
  pos_type seekoff(off_type, std::ios_base::seekdir,
                   std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
};

TEST(TraceIoTest, TruncationErrorNamesRecordAndByteOffset) {
  std::stringstream ss;
  write_binary_trace(ss, sample_trace());
  std::string data = ss.str();
  data.resize(16 + 2 * 24 + 5);  // header + 2 whole records + a partial third
  NonSeekableBuf buf(data);
  std::istream truncated(&buf);
  try {
    read_binary_trace(truncated);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 2 of 4"), std::string::npos);
    EXPECT_NE(what.find("byte offset 64"), std::string::npos);  // 16 + 2*24
  }
}

TEST(TraceIoTest, RejectsUnsupportedVersionNamingIt) {
  std::stringstream ss;
  write_binary_trace(ss, sample_trace());
  std::string data = ss.str();
  const std::uint32_t bogus = 99;
  std::memcpy(data.data() + 4, &bogus, sizeof bogus);  // version at byte 4
  std::stringstream wrong(data);
  try {
    read_binary_trace(wrong);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos);
  }
}

TEST(TraceIoTest, RejectsMalformedCsv) {
  std::stringstream ss;
  ss << "time_s,page,request_start\n1.0;4;1\n";
  try {
    read_csv_trace(ss);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("malformed CSV trace line 2: 1.0;4;1"),
              std::string::npos)
        << e.what();
  }
}

// The readers decode; the time order is the replay rule's to check
// (validate_trace), as for every trace source.
TEST(TraceIoTest, RejectsUnsortedTrace) {
  std::stringstream ss;
  ss << "2.0,1,1\n1.0,2,1\n";
  const Trace t = read_csv_trace(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_THROW(validate_trace(t), std::invalid_argument);
}

TEST(TraceIoTest, CsvHeaderIsOptional) {
  std::stringstream ss;
  ss << "1.0,5,1\n2.0,6,0\n";
  const auto t = read_csv_trace(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.pages[0], 5u);
  EXPECT_EQ(t.flags[1] & kTraceFlagStart, 0);
}

TEST(TraceIoTest, FileRoundTripBothFormats) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(64);
  cfg.byte_rate = 20e6;
  cfg.duration_s = 10.0;
  cfg.page_bytes = 64 * kKiB;
  const auto trace = synthesize_trace(cfg);
  ASSERT_FALSE(trace.empty());

  for (const char* name : {"jpm_trace_test.jpmt", "jpm_trace_test.csv"}) {
    const std::string path = (dir / name).string();
    save_trace(path, trace);
    const auto loaded = load_trace(path);
    ASSERT_EQ(loaded.size(), trace.size()) << path;
    EXPECT_EQ(loaded.pages.front(), trace.pages.front());
    EXPECT_EQ(loaded.pages.back(), trace.pages.back());
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.jpmt"),
               std::invalid_argument);
}

TEST(TraceIoTest, LoadTraceErrorsNameThePathAndTheLine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "jpm_bad_line.csv").string();
  std::ofstream(path) << "time_s,page,request_start\n0.5,1,1\n0.75,x,1\n";
  try {
    load_trace(path);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path +
                                         ": malformed CSV trace line 3"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---- format sniffing -------------------------------------------------------
// load_trace routes on leading bytes, never on the file extension.

std::string sniff_error(const std::string& content) {
  std::stringstream ss(content);
  try {
    sniff_trace_format(ss, "t.dat");
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(TraceIoTest, SniffsEveryKnownFormat) {
  std::stringstream bin;
  write_binary_trace(bin, sample_trace());
  EXPECT_EQ(sniff_trace_format(bin, "t"), TraceFormat::kBinary);
  EXPECT_EQ(read_binary_trace(bin).size(), 4u);  // stream position restored

  std::stringstream chunked("JPMC" + std::string(60, '\0'));
  EXPECT_EQ(sniff_trace_format(chunked, "t"), TraceFormat::kChunked);

  std::stringstream csv("time_s,page,request_start\n0.5,100,1\n");
  EXPECT_EQ(sniff_trace_format(csv, "t"), TraceFormat::kCsv);
  std::stringstream headerless("0.5,100,1\n");
  EXPECT_EQ(sniff_trace_format(headerless, "t"), TraceFormat::kCsv);
}

TEST(TraceIoTest, SniffNamesUnrecognizedAndEmptyInputs) {
  EXPECT_NE(sniff_error(std::string("\xff\xfe garbage", 11))
                .find("unrecognized trace format"),
            std::string::npos);
  EXPECT_NE(sniff_error("").find("empty trace file"), std::string::npos);
}

TEST(TraceIoTest, LoadTraceRefusesChunkedFilesByName) {
  // A JPMC file needs the tracefile reader; load_trace names the right tool
  // instead of misparsing the header as JPMT records.
  const std::string path =
      (std::filesystem::temp_directory_path() / "jpm_sniff.jpmc").string();
  std::ofstream f(path, std::ios::binary);
  f << "JPMC" << std::string(60, '\0');
  f.close();
  try {
    load_trace(path);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jpm::tracefile::TraceReader"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jpm::workload
