#include "jpm/workload/trace_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace jpm::workload {
namespace {

constexpr char kMagic[4] = {'J', 'P', 'M', 'T'};
// v1: flags byte held only request_start (0/1). v2: bit 0 = request_start,
// bit 1 = is_write. v1 files read fine under the v2 interpretation.
constexpr std::uint32_t kVersion = 2;

struct PackedEvent {
  double time_s;
  std::uint64_t page;
  std::uint8_t flags;
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(PackedEvent) == 24);

constexpr std::uint8_t kFlagMask = kTraceFlagStart | kTraceFlagWrite;

[[noreturn]] void reject(const std::string& why) {
  throw std::invalid_argument(why);
}

}  // namespace

void write_binary_trace(std::ostream& os, const Trace& trace) {
  os.write(kMagic, sizeof kMagic);
  const std::uint32_t version = kVersion;
  const std::uint64_t count = trace.size();
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
  os.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto flags = static_cast<std::uint8_t>(trace.flags[i] & kFlagMask);
    PackedEvent p{trace.times[i], trace.pages[i], flags, {}};
    os.write(reinterpret_cast<const char*>(&p), sizeof p);
  }
  if (!os.good()) throw std::runtime_error("trace write failed");
}

Trace read_binary_trace(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is.good() || std::memcmp(magic, kMagic, 4) != 0) {
    reject("not a JPMT trace (bad magic at byte offset 0)");
  }
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  is.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!is.good()) reject("trace header truncated (16 bytes expected)");
  if (version != 1 && version != kVersion) {
    reject("unsupported trace version " + std::to_string(version) +
           " at byte offset 4");
  }

  // Bounds-check the declared record count against the remaining stream
  // before allocating: a corrupt or hostile header must not drive a
  // multi-gigabyte reserve (or a long truncation loop). Non-seekable
  // streams skip the pre-check and rely on the per-record one below.
  const std::istream::pos_type body_start = is.tellg();
  if (body_start != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = is.tellg();
    is.seekg(body_start);
    if (end_pos != std::istream::pos_type(-1) && end_pos >= body_start) {
      const auto available =
          static_cast<std::uint64_t>(end_pos - body_start);
      if (count > available / sizeof(PackedEvent)) {
        reject("corrupt trace header: " + std::to_string(count) +
               " records declared at byte offset 8 but only " +
               std::to_string(available / sizeof(PackedEvent)) +
               " fit in the remaining " + std::to_string(available) +
               " bytes");
      }
    }
  }

  Trace trace;
  trace.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    PackedEvent p;
    is.read(reinterpret_cast<char*>(&p), sizeof p);
    if (!is.good()) {
      reject("trace truncated at record " + std::to_string(i) + " of " +
             std::to_string(count) + " (byte offset " +
             std::to_string(16 + i * sizeof(PackedEvent)) + ")");
    }
    trace.times.push_back(p.time_s);
    trace.pages.push_back(p.page);
    trace.flags.push_back(static_cast<std::uint8_t>(p.flags & kFlagMask));
  }
  return trace;
}

void write_csv_header(std::ostream& os) {
  os << "time_s,page,request_start,is_write\n";
}

void write_csv_row(std::ostream& os, double time_s, std::uint64_t page,
                   std::uint8_t flags) {
  os.precision(9);
  os << std::fixed << time_s << ',' << page << ','
     << ((flags & kTraceFlagStart) != 0 ? 1 : 0) << ','
     << ((flags & kTraceFlagWrite) != 0 ? 1 : 0) << '\n';
}

void write_csv_trace(std::ostream& os, const Trace& trace) {
  write_csv_header(os);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    write_csv_row(os, trace.times[i], trace.pages[i], trace.flags[i]);
  }
  if (!os.good()) throw std::runtime_error("trace write failed");
}

Trace read_csv_trace(std::istream& is) {
  Trace trace;
  std::string line;
  bool first = true;
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("time_s", 0) == 0) continue;  // header
    }
    const auto malformed = [&] {
      reject("malformed CSV trace line " + std::to_string(line_no) + ": " +
             line);
    };
    std::istringstream row(line);
    TraceEvent e;
    char comma1 = 0, comma2 = 0;
    int start = 0;
    row >> e.time_s >> comma1 >> e.page >> comma2 >> start;
    if (row.fail() || comma1 != ',' || comma2 != ',') malformed();
    e.request_start = start != 0;
    // Optional 4th column (write flag); traces without it are read-only.
    char comma3 = 0;
    int write = 0;
    if (row >> comma3 >> write) {
      if (comma3 != ',') malformed();
      e.is_write = write != 0;
    }
    trace.push_back(e);
  }
  return trace;
}

void save_trace(const std::string& path, const Trace& trace) {
  const bool csv = path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
  std::ofstream os(path, csv ? std::ios::out : std::ios::out | std::ios::binary);
  if (!os.is_open()) {
    throw std::runtime_error(path + ": cannot open for writing");
  }
  if (csv) {
    write_csv_trace(os, trace);
  } else {
    write_binary_trace(os, trace);
  }
}

TraceFormat sniff_trace_format(std::istream& is, const std::string& name) {
  const std::istream::pos_type start = is.tellg();
  char head[4] = {};
  is.read(head, sizeof head);
  const std::streamsize got = is.gcount();
  is.clear();
  is.seekg(start);
  if (got <= 0) reject(name + ": empty trace file");
  if (got == 4 && std::memcmp(head, "JPMT", 4) == 0) {
    return TraceFormat::kBinary;
  }
  if (got == 4 && std::memcmp(head, "JPMC", 4) == 0) {
    return TraceFormat::kChunked;
  }
  // CSV starts with a header line or a bare timestamp — printable text
  // either way. Anything else is a truncated or misnamed binary file.
  bool text = true;
  for (std::streamsize i = 0; i < got; ++i) {
    const unsigned char c = static_cast<unsigned char>(head[i]);
    if (c != '\t' && c != '\n' && c != '\r' && (c < 0x20 || c > 0x7e)) {
      text = false;
    }
  }
  if (!text) {
    reject(name +
           ": unrecognized trace format (no JPMT/JPMC magic and not CSV "
           "text)");
  }
  return TraceFormat::kCsv;
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::in | std::ios::binary);
  if (!is.is_open()) reject(path + ": cannot open for reading");
  const TraceFormat format = sniff_trace_format(is, path);
  if (format == TraceFormat::kChunked) {
    reject(path + ": JPMC chunked trace — decode it with "
                  "jpm::tracefile::TraceReader (CLI: jpm trace cat)");
  }
  try {
    return format == TraceFormat::kBinary ? read_binary_trace(is)
                                          : read_csv_trace(is);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace jpm::workload
