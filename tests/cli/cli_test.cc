// Subprocess tests for the `jpm` CLI's exit paths: every failure mode must
// exit non-zero with a path-named message on stderr (never an uncaught
// exception), and the happy paths must exit 0. The binary under test comes
// in via JPM_CLI_PATH; the checked-in scenarios via JPM_SCENARIOS_DIR.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "jpm/util/json.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace_io.h"

namespace {

const std::string kCli = JPM_CLI_PATH;
const std::string kScenarios = JPM_SCENARIOS_DIR;

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& command) {
  CmdResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string demo_scenario() { return kScenarios + "/serve_demo.json"; }

std::string write_temp(const std::string& name, const std::string& contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

// The demo scenario with its workload point replaying `trace`, saved under
// TempDir as `name`.
std::string demo_replaying(const std::string& trace, const std::string& name) {
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  const auto pos = text.find("\"workload\": {");
  EXPECT_NE(pos, std::string::npos);
  text.insert(pos, "\"trace\": {\"path\": \"" + trace + "\"},\n      ");
  return write_temp(name, text);
}

TEST(CliTest, NoArgumentsPrintsUsageAndExitsNonZero) {
  const auto r = run_cmd(kCli);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(CliTest, UnknownCommandExitsNonZero) {
  const auto r = run_cmd(kCli + " frobnicate");
  EXPECT_NE(r.exit_code, 0);
}

TEST(CliTest, MissingScenarioFileNamesThePath) {
  const auto r = run_cmd(kCli + " validate /nonexistent/missing.json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("/nonexistent/missing.json"), std::string::npos)
      << r.output;
}

TEST(CliTest, RunWithMissingFileExitsOneNotUncaught) {
  const auto r = run_cmd(kCli + " run /nonexistent/missing.json");
  EXPECT_EQ(r.exit_code, 1);  // an uncaught exception would abort (134)
  EXPECT_NE(r.output.find("/nonexistent/missing.json"), std::string::npos)
      << r.output;
}

TEST(CliTest, MalformedScenarioNamesPathAndExitsOne) {
  const auto path = write_temp("cli_test_bad.json", "{\"version\": 1,");
  const auto r = run_cmd(kCli + " validate " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(path), std::string::npos) << r.output;
}

TEST(CliTest, BadStreamSectionNamesTheJsonPath) {
  // An out-of-range stream knob must be rejected at validate time with the
  // $.stream path in the message.
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  const std::string needle = "\"ring_capacity\": 4096";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"ring_capacity\": 3");
  const auto path = write_temp("cli_test_bad_stream.json", text);
  const auto r = run_cmd(kCli + " validate " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("$.stream"), std::string::npos) << r.output;
}

TEST(CliTest, ValidateAndHashAcceptTheDemoScenario) {
  const auto v = run_cmd(kCli + " validate " + demo_scenario());
  EXPECT_EQ(v.exit_code, 0) << v.output;
  EXPECT_NE(v.output.find("ok "), std::string::npos);
  const auto h = run_cmd(kCli + " hash " + demo_scenario());
  EXPECT_EQ(h.exit_code, 0);
  EXPECT_EQ(h.output.size(), 17u);  // 16 hex digits + newline
}

TEST(CliTest, PrintReproducesTheCheckedInScenario) {
  const auto r = run_cmd(kCli + " print " + demo_scenario());
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(r.output, ss.str());
}

TEST(CliTest, ServeUnknownPolicyListsTheRoster) {
  const auto r =
      run_cmd(kCli + " serve " + demo_scenario() + " --policy=bogus </dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("no policy named"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Always-on"), std::string::npos) << r.output;
}

TEST(CliTest, ServeUnknownFormatExitsNonZero) {
  const auto r =
      run_cmd(kCli + " serve " + demo_scenario() + " --format=csv </dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(CliTest, ServeEmptyStdinFlushesACompleteReport) {
  const auto r = run_cmd(kCli + " serve " + demo_scenario() + " </dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"kind\": \"serve_report\""), std::string::npos);
  EXPECT_NE(r.output.find("\"interrupted\": false"), std::string::npos);
}

TEST(CliTest, ServeConsumesPipedJsonlEvents) {
  const auto r = run_cmd(
      "printf '{\"t\": 1, \"page\": 0}\\n{\"t\": 2, \"page\": 1}\\n' | " +
      kCli + " serve " + demo_scenario());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"events_processed\": 2"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeDecodeErrorExitsOneButStillReports) {
  const auto r = run_cmd("printf 'not json\\n' | " + kCli + " serve " +
                         demo_scenario() + " --format=jsonl");
  EXPECT_EQ(r.exit_code, 1);
  // The report is flushed before the error exit, with the position inside.
  EXPECT_NE(r.output.find("\"kind\": \"serve_report\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 1"), std::string::npos) << r.output;
}

TEST(CliTest, ServeRejectsPagePastU64) {
  for (const char* page : {"1e400", "1.9e19"}) {
    SCOPED_TRACE(page);
    const auto r = run_cmd(std::string("printf '{\"t\":0,\"page\":1}\\n") +
                           "{\"t\":0,\"page\":" + page + "}\\n' | " + kCli +
                           " serve " + demo_scenario());
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("<stdin>: line 2: \"page\" must be below 2^64"),
              std::string::npos)
        << r.output;
  }
}

// SIGINT is serve's shutdown path: the run drains what it read, closes its
// final period, reports with "interrupted": true, and exits 0.
TEST(CliTest, ServeSigintDrainsAndReportsInterrupted) {
  const std::string out_path = ::testing::TempDir() + "cli_sigint.out";
  const std::string scenario = demo_scenario();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || dup2(fds[0], 0) < 0 || dup2(out, 1) < 0 ||
        dup2(out, 2) < 0) {
      _exit(127);
    }
    close(fds[0]);
    close(fds[1]);
    execl(kCli.c_str(), kCli.c_str(), "serve", scenario.c_str(),
          "--format=jsonl", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[0]);
  // The write end stays open, so only the signal can end the run.
  std::string events;
  for (int i = 0; i < 100; ++i) {
    events += "{\"t\":" + std::to_string(i) + ",\"page\":" +
              std::to_string(i) + "}\n";
  }
  ASSERT_EQ(write(fds[1], events.data(), events.size()),
            static_cast<ssize_t>(events.size()));
  // serve installs its handler before it starts reading, so once the pipe
  // is empty the handler is in place and every event has been read.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int unread = 1;
  while (unread > 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(ioctl(fds[1], FIONREAD, &unread), 0);
    if (unread > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(unread, 0) << "serve never read its stdin";
  ASSERT_EQ(kill(pid, SIGINT), 0);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  close(fds[1]);
  std::ifstream in(out_path);
  const std::string output((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ASSERT_EQ(done, pid) << "serve did not exit on SIGINT\n" << output;
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("\"interrupted\": true"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"events_processed\": 100"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"decode_error\": \"\""), std::string::npos)
      << output;
  std::remove(out_path.c_str());
}

TEST(CliTest, SynthCountEmitsExactlyNEvents) {
  const auto r =
      run_cmd(kCli + " synth " + demo_scenario() + " --count=5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::size_t lines = 0;
  for (char c : r.output) lines += c == '\n';
  EXPECT_EQ(lines, 5u);
}

TEST(CliTest, SynthRejectsAutoFormat) {
  const auto r =
      run_cmd(kCli + " synth " + demo_scenario() + " --format=auto");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(CliTest, SynthPipesIntoServeEndToEnd) {
  const auto r = run_cmd(kCli + " synth " + demo_scenario() +
                         " --count=2000 --format=binary | " + kCli +
                         " serve " + demo_scenario() + " --policy=Joint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"policy\": \"Joint\""), std::string::npos);
  EXPECT_NE(r.output.find("\"wire_format\": \"binary\""), std::string::npos);
  EXPECT_NE(r.output.find("\"events_processed\": 2000"), std::string::npos)
      << r.output;
}

// ---- jpm trace (the JPMC chunked store) ------------------------------------

TEST(CliTest, TraceWithoutSubcommandExitsTwo) {
  EXPECT_EQ(run_cmd(kCli + " trace").exit_code, 2);
  EXPECT_EQ(run_cmd(kCli + " trace frobnicate").exit_code, 2);
}

TEST(CliTest, TraceSynthInfoCatRoundTrip) {
  const std::string file = ::testing::TempDir() + "cli_trace.jpmc";
  const auto synth = run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                             demo_scenario() + " " + file);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  EXPECT_NE(synth.output.find("events"), std::string::npos);

  const auto info = run_cmd(kCli + " trace info " + file + " --verify");
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("format:       JPMC v1"), std::string::npos);
  EXPECT_NE(info.output.find("content_hash:"), std::string::npos);
  EXPECT_NE(info.output.find("verify:       ok"), std::string::npos);

  const auto cat = run_cmd(kCli + " trace cat " + file + " --limit=2");
  EXPECT_EQ(cat.exit_code, 0) << cat.output;
  EXPECT_NE(cat.output.find("time_s,page,request_start,is_write"),
            std::string::npos);

  const auto jsonl =
      run_cmd(kCli + " trace cat " + file + " --format=jsonl --limit=1");
  EXPECT_EQ(jsonl.exit_code, 0) << jsonl.output;
  EXPECT_NE(jsonl.output.find("{\"t\":"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, TracePackConvertsCsvCaptures) {
  const auto csv = write_temp("cli_trace.csv",
                              "time_s,page,request_start\n"
                              "0.5,100,1\n0.502,101,0\n1.25,7,1\n");
  const std::string packed = ::testing::TempDir() + "cli_packed.jpmc";
  const auto pack = run_cmd(kCli + " trace pack " + csv + " " + packed);
  EXPECT_EQ(pack.exit_code, 0) << pack.output;
  const auto info = run_cmd(kCli + " trace info " + packed);
  EXPECT_NE(info.output.find("events:       3"), std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("total_pages:  102"), std::string::npos)
      << info.output;  // max page + 1, derived from the events
  std::remove(packed.c_str());
}

// `jpm trace pack` applies the replay rule (workload::validate_trace): what
// it packs, an in-memory replay of the same events would accept.
TEST(CliTest, TracePackRejectsWhatReplayWouldReject) {
  const std::string packed = ::testing::TempDir() + "cli_rejected.jpmc";
  const auto csv = write_temp("cli_trace_past.csv",
                              "time_s,page,request_start\n"
                              "0.5,3,1\n1.0,500,1\n");
  const auto past = run_cmd(kCli + " trace pack " + csv + " " + packed +
                            " --total-pages=10");
  EXPECT_EQ(past.exit_code, 1) << past.output;
  // The input path and the offending event, not the internal check.
  EXPECT_NE(past.output.find(csv + ": trace pages exceed the declared "
                                   "data-set size: event 1 (t=1, page 500)"),
            std::string::npos)
      << past.output;
  EXPECT_EQ(past.output.find("JPM_CHECK"), std::string::npos) << past.output;
  // The same file with room for page 500 packs.
  EXPECT_EQ(run_cmd(kCli + " trace pack " + csv + " " + packed +
                    " --total-pages=501")
                .exit_code,
            0);

  const auto empty = write_temp("cli_trace_empty.csv",
                                "time_s,page,request_start\n");
  const auto none = run_cmd(kCli + " trace pack " + empty + " " + packed);
  EXPECT_EQ(none.exit_code, 1) << none.output;
  EXPECT_NE(none.output.find("replay trace is empty"), std::string::npos)
      << none.output;
  std::remove(packed.c_str());
}

// The legacy readers decode and validate_trace orders: a CSV that goes
// backwards is named by path and event, not by an internal check.
TEST(CliTest, TracePackNamesABackwardsCsv) {
  const std::string packed = ::testing::TempDir() + "cli_backwards.jpmc";
  const auto csv = write_temp("cli_trace_backwards.csv",
                              "time_s,page,request_start\n"
                              "0.5,3,1\n0.25,4,1\n");
  const auto r = run_cmd(kCli + " trace pack " + csv + " " + packed);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(csv + ": replay trace must be time-sorted: "
                                "event 1 (t=0.25, page 4)"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("JPM_CHECK"), std::string::npos) << r.output;
  std::remove(packed.c_str());
}

// `trace cat --format=csv` and write_csv_trace share one row format, so a
// CSV packed and decoded again comes back byte for byte.
TEST(CliTest, TraceCatCsvReproducesThePackedCsv) {
  jpm::workload::SynthesizerConfig w;
  w.dataset_bytes = 64ull << 20;
  w.byte_rate = 2e6;
  w.duration_s = 120.0;
  w.page_bytes = 64 << 10;
  w.write_fraction = 0.3;  // both flag columns vary
  const std::string csv = ::testing::TempDir() + "cli_roundtrip.csv";
  {
    std::ofstream out(csv);
    jpm::workload::write_csv_trace(out,
                                   jpm::workload::synthesize_trace(w));
  }
  const std::string packed = ::testing::TempDir() + "cli_roundtrip.jpmc";
  ASSERT_EQ(run_cmd(kCli + " trace pack " + csv + " " + packed +
                    " --chunk-events=1000")
                .exit_code,
            0);
  const auto cat = run_cmd(kCli + " trace cat " + packed + " --format=csv");
  EXPECT_EQ(cat.exit_code, 0);
  std::ifstream in(csv);
  const std::string original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_GT(original.size(), 1000u);
  EXPECT_TRUE(cat.output == original) << "trace cat output differs from "
                                      << csv;
  std::remove(csv.c_str());
  std::remove(packed.c_str());
}

TEST(CliTest, TraceInfoRejectsNonJpmcFilesByName) {
  const auto path = write_temp("cli_not_a_trace.jpmc",
                               std::string(100, 'x'));  // a full header's worth
  const auto r = run_cmd(kCli + " trace info " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad magic"), std::string::npos) << r.output;

  const auto tiny = write_temp("cli_tiny.jpmc", "hi");
  const auto rt = run_cmd(kCli + " trace info " + tiny);
  EXPECT_EQ(rt.exit_code, 1);
  EXPECT_NE(rt.output.find("header truncated"), std::string::npos)
      << rt.output;
}

TEST(CliTest, TraceInfoTruncatedFileNamesTheDefect) {
  const std::string file = ::testing::TempDir() + "cli_trunc.jpmc";
  const auto synth = run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                             demo_scenario() + " " + file);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  ASSERT_EQ(run_cmd("truncate -s -40 " + file).exit_code, 0);
  const auto r = run_cmd(kCli + " trace info " + file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file), std::string::npos) << r.output;
  std::remove(file.c_str());
}

// The headline contract end-to-end through the shipped binary: a scenario
// replayed from JPMC files prints byte-identical tables to the synthesizing
// run, and its telemetry report carries the trace provenance.
TEST(CliTest, RunFromTraceFilesMatchesInMemoryStdout) {
  const std::string file = ::testing::TempDir() + "cli_run_trace.jpmc";
  ASSERT_EQ(run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                    demo_scenario() + " " + file)
                .exit_code,
            0);

  const auto traced = demo_replaying(file, "cli_run_traced.json");

  // Both runs export telemetry to the same base so the stdout log lines
  // match; the report left on disk is the file-backed run's.
  const std::string base = ::testing::TempDir() + "cli_run_trace";
  const auto mem = run_cmd("JPM_BENCH_FAST=1 " + kCli + " run " +
                           demo_scenario() + " --telemetry=" + base);
  const auto file_backed = run_cmd("JPM_BENCH_FAST=1 " + kCli + " run " +
                                   traced + " --telemetry=" + base);
  EXPECT_EQ(mem.exit_code, 0) << mem.output;
  EXPECT_EQ(file_backed.exit_code, 0) << file_backed.output;
  EXPECT_EQ(file_backed.output, mem.output);

  std::ifstream report(base + ".report.json");
  std::stringstream rs;
  rs << report.rdbuf();
  EXPECT_NE(rs.str().find("\"trace_path\": \"" + file + "\""),
            std::string::npos);
  EXPECT_NE(rs.str().find("\"trace_hash\": \""), std::string::npos);
  std::remove(file.c_str());
}

// A checked-in scenario with one array trimmed (json::Value surgery), saved
// under TempDir.
std::string trimmed_scenario(const std::string& name, const char* key,
                             std::size_t keep) {
  std::ifstream in(kScenarios + "/" + name + ".json");
  std::stringstream text;
  text << in.rdbuf();
  jpm::util::json::Value root;
  EXPECT_TRUE(jpm::util::json::parse(text.str(), &root));
  root.as_object()[key].as_array().resize(keep);
  return write_temp("cli_trimmed_" + name + ".json",
                    jpm::util::json::dump(root, 2));
}

// One notion of a valid scenario: a file missing the shape its
// output.report reads fails `jpm validate` and `jpm run` alike, with the
// same JSON path, before anything is printed or simulated.
TEST(CliTest, ValidateAndRunRejectTrimmedShapesAlike) {
  const std::pair<std::string, const char*> cases[] = {
      // Table V reads roster[1] as its baseline.
      {trimmed_scenario("table5_bank", "roster", 1), "$.roster"},
      // PB-LRU merges workloads[0] and workloads[1].
      {trimmed_scenario("ext_pblru", "workloads", 1), "$.workloads"},
      // A sweep normalizes against its always-on entry (roster[0]).
      {trimmed_scenario("quickstart", "roster", 0), "$.roster"},
  };
  for (const auto& [file, path] : cases) {
    SCOPED_TRACE(file);
    for (const char* command : {" validate ", " run "}) {
      const std::string cmd = "JPM_BENCH_FAST=1 " + kCli + command + file;
      const auto r = run_cmd(cmd);
      EXPECT_EQ(r.exit_code, 1) << r.output;
      EXPECT_NE(r.output.find(std::string("error: ") + path + ": report \""),
                std::string::npos)
          << r.output;
      EXPECT_EQ(r.output.find("JPM_CHECK"), std::string::npos) << r.output;
      // Nothing reaches stdout (the subshell drops stderr).
      EXPECT_EQ(run_cmd("(" + cmd + " 2>/dev/null)").output, "");
    }
  }
}

// One test per checked-in scenario (a ctest each, so `ctest -j` spreads
// them): what `jpm validate` accepts, `jpm run` executes, and it prints the
// header and at least one table — unless the file declares nothing to print
// (a sweep with no header, no tables and no cluster, such as the examples'
// parameter files), whose stdout is empty.
std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kScenarios)) {
    if (entry.path().extension() == ".json") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class ScenarioFileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioFileTest, ValidateAcceptsAndRunPrintsTheReport) {
  const std::string file = kScenarios + "/" + GetParam() + ".json";
  const auto v = run_cmd(kCli + " validate " + file);
  EXPECT_EQ(v.exit_code, 0) << v.output;

  const auto r =
      run_cmd("(JPM_BENCH_FAST=1 " + kCli + " run " + file + " 2>/dev/null)");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("JPM_CHECK"), std::string::npos) << r.output;

  std::ifstream in(file);
  std::stringstream text;
  text << in.rdbuf();
  jpm::util::json::Value root;
  ASSERT_TRUE(jpm::util::json::parse(text.str(), &root));
  const auto& output = root.as_object().find("output")->as_object();
  const bool prints_nothing =
      output.find("report")->as_string() == "sweep" &&
      output.find("header")->as_string().empty() &&
      output.find("tables")->as_array().empty() &&
      !root.as_object().contains("cluster");
  if (prints_nothing) {
    EXPECT_EQ(r.output, "");
    return;
  }
  const auto header_end = r.output.find('\n');
  ASSERT_NE(header_end, std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\n+-", header_end), std::string::npos)
      << "no table after the header:\n"
      << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioFileTest, ::testing::ValuesIn(scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --telemetry announces <base>.{report.json,trace.json,periods.csv} before
// the run; a run that then fails still leaves them behind.
TEST(CliTest, FailingRunStillExportsTheAnnouncedTelemetry) {
  const std::string base = ::testing::TempDir() + "cli_failed_run";
  for (const char* ext : {".report.json", ".trace.json", ".periods.csv"}) {
    std::remove((base + ext).c_str());
  }
  // A valid scenario whose trace file is missing fails inside the run.
  const auto missing =
      demo_replaying("/nonexistent/cli.jpmc", "cli_missing_trace.json");
  const auto r = run_cmd("JPM_BENCH_FAST=1 " + kCli + " run " + missing +
                         " --telemetry=" + base);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  ASSERT_NE(r.output.find("telemetry -> " + base), std::string::npos)
      << r.output;
  for (const char* ext : {".report.json", ".trace.json", ".periods.csv"}) {
    EXPECT_TRUE(std::ifstream(base + ext).good()) << base + ext;
    std::remove((base + ext).c_str());
  }
}

}  // namespace
