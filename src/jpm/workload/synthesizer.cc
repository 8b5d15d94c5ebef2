#include "jpm/workload/synthesizer.h"

#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

#include "jpm/util/check.h"

namespace jpm::workload {

void SynthesizerConfig::validate() const {
  const auto bad = [](const std::string& why) {
    throw std::invalid_argument("invalid SynthesizerConfig: " + why);
  };
  if (dataset_bytes == 0) bad("dataset_bytes must be positive");
  if (page_bytes == 0) bad("page_bytes must be positive");
  if (!(byte_rate > 0.0) || !std::isfinite(byte_rate)) {
    bad("byte_rate must be positive and finite");
  }
  if (!(duration_s > 0.0) || !std::isfinite(duration_s)) {
    bad("duration_s must be positive and finite");
  }
  if (popularity < 0.0 || popularity > 1.0) {
    bad("popularity must lie in [0, 1]");
  }
  if (!(file_scale > 0.0)) bad("file_scale must be positive");
  if (rate_modulation < 0.0) bad("rate_modulation must be nonnegative");
  if (modulation_period_s < 0.0) {
    bad("modulation_period_s must be nonnegative (0 disables)");
  }
  if (intra_request_spacing_s < 0.0) {
    bad("intra_request_spacing_s must be nonnegative");
  }
  if (temporal_locality < 0.0 || temporal_locality > 1.0) {
    bad("temporal_locality must lie in [0, 1]");
  }
  if (write_fraction < 0.0 || write_fraction > 1.0) {
    bad("write_fraction must lie in [0, 1]");
  }
}

namespace {

// A page access waiting to be emitted; requests overlap, so a min-heap on
// time interleaves them into one nondecreasing stream.
struct Pending {
  double time;
  std::uint64_t page;
  std::uint32_t pages_left;  // further pages after this one
  bool request_start;
  bool is_write;
};
struct PendingLater {
  bool operator()(const Pending& a, const Pending& b) const {
    return a.time > b.time;
  }
};

}  // namespace

struct TraceGenerator::Impl {
  SynthesizerConfig config;
  FileSet files;
  PopularityModel popularity;
  Rng rng;
  double mean_request_bytes = 0.0;

  std::priority_queue<Pending, std::vector<Pending>, PendingLater> heap;
  double next_arrival = 0.0;
  bool arrivals_done = false;
  // Ring buffer of recent request file indices for the temporal-locality
  // draw (duplicates intended: repetition compounds recency weight).
  std::vector<std::uint32_t> recent;
  std::size_t recent_next = 0;

  explicit Impl(const SynthesizerConfig& cfg)
      : config((cfg.validate(), cfg)),
        files(FileSetConfig{cfg.dataset_bytes, gib(4), cfg.file_scale,
                            cfg.seed}),
        popularity(files, PopularityConfig{cfg.popularity, 0.9, cfg.seed}),
        rng(cfg.seed * 0x2545f4914f6cdd1dull + 0x9e37) {
    for (std::size_t i = 0; i < files.file_count(); ++i) {
      mean_request_bytes += popularity.probability(i) *
                            static_cast<double>(files.file(i).size_bytes);
    }
    JPM_CHECK(mean_request_bytes > 0.0);
    advance_arrival();
  }

  double instant_rate(double t) const {
    double rate = config.byte_rate;
    if (config.rate_modulation > 0.0 && config.modulation_period_s > 0.0) {
      rate *= 1.0 + config.rate_modulation *
                        std::sin(2.0 * 3.14159265358979323846 * t /
                                 config.modulation_period_s);
    }
    return rate;
  }

  void advance_arrival() {
    if (arrivals_done) return;
    const double mean_gap = mean_request_bytes / instant_rate(next_arrival);
    next_arrival += rng.exponential(mean_gap);
    if (next_arrival >= config.duration_s) arrivals_done = true;
  }

  std::size_t draw_file() {
    if (!recent.empty() && rng.chance(config.temporal_locality)) {
      // Quadratic bias toward the most recent entries.
      const double u = rng.uniform();
      const auto back = static_cast<std::size_t>(
          u * u * static_cast<double>(recent.size()));
      const std::size_t pos =
          (recent_next + recent.size() - 1 - back) % recent.size();
      return recent[pos];
    }
    return popularity.sample(rng);
  }

  void remember_file(std::size_t fi) {
    if (config.temporal_locality <= 0.0 || config.locality_window == 0) return;
    if (recent.size() < config.locality_window) {
      recent.push_back(static_cast<std::uint32_t>(fi));
      recent_next = recent.size() % config.locality_window;
    } else {
      recent[recent_next] = static_cast<std::uint32_t>(fi);
      recent_next = (recent_next + 1) % recent.size();
    }
  }

  void admit_request() {
    const std::size_t fi = draw_file();
    remember_file(fi);
    const auto count = static_cast<std::uint32_t>(
        files.page_count(fi, config.page_bytes));
    // Skip the draw entirely at 0 so read-only configs keep the exact
    // pseudo-random stream they had before the write extension existed.
    const bool is_write =
        config.write_fraction > 0.0 && rng.chance(config.write_fraction);
    heap.push(Pending{next_arrival, files.first_page(fi, config.page_bytes),
                      count - 1, true, is_write});
    advance_arrival();
  }

  std::optional<TraceEvent> next() {
    // Admit every request that arrives before the earliest pending page so
    // emission order is globally nondecreasing in time.
    while (!arrivals_done && (heap.empty() || next_arrival <= heap.top().time)) {
      admit_request();
    }
    if (heap.empty()) return std::nullopt;
    const Pending p = heap.top();
    heap.pop();
    if (p.pages_left > 0) {
      heap.push(Pending{p.time + config.intra_request_spacing_s, p.page + 1,
                        p.pages_left - 1, false, p.is_write});
    }
    return TraceEvent{p.time, p.page, p.request_start, p.is_write};
  }
};

TraceGenerator::TraceGenerator(const SynthesizerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}
TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept = default;

std::optional<TraceEvent> TraceGenerator::next() { return impl_->next(); }

void TraceGenerator::reset() {
  auto cfg = impl_->config;
  impl_ = std::make_unique<Impl>(cfg);
}

const FileSet& TraceGenerator::files() const { return impl_->files; }
const PopularityModel& TraceGenerator::popularity() const {
  return impl_->popularity;
}
const SynthesizerConfig& TraceGenerator::config() const {
  return impl_->config;
}
double TraceGenerator::mean_request_bytes() const {
  return impl_->mean_request_bytes;
}
std::uint64_t TraceGenerator::total_pages() const {
  return ceil_div(impl_->files.total_bytes(), impl_->config.page_bytes);
}

Trace synthesize_trace(const SynthesizerConfig& config) {
  TraceGenerator gen(config);
  Trace trace;
  trace.page_bytes = config.page_bytes;
  // Matches the generator-driven engine path: total pages from the file set
  // (not max accessed page) and the configured duration (not the last event).
  trace.total_pages = gen.total_pages();
  trace.duration_s = config.duration_s;
  while (auto e = gen.next()) trace.push_back(*e);
  return trace;
}

}  // namespace jpm::workload
