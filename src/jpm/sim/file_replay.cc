#include "jpm/sim/file_replay.h"

#include <algorithm>

#include "jpm/util/check.h"

namespace jpm::sim {

FileReplay::FileReplay(const tracefile::TraceReader& reader,
                       const PolicySpec& policy, const EngineConfig& config)
    : reader_(reader), policy_(policy), config_(config) {}

void FileReplay::begin_stream() {
  if (engine_.has_value()) return;
  const tracefile::FileHeader& h = reader_.header();
  JPM_CHECK_MSG(h.page_bytes > 0,
                reader_.name() + ": header declares zero page_bytes; "
                                 "repack with --page-bytes to replay");
  JPM_CHECK_MSG(h.total_pages > 0,
                reader_.name() + ": header declares zero total_pages; "
                                 "repack with --total-pages to replay");
  LiveSource source;
  source.page_bytes = h.page_bytes;
  source.total_pages = h.total_pages;
  source.duration_hint_s = h.duration_s;
  engine_.emplace(source, policy_, config_);
}

void FileReplay::push_chunk(std::size_t i) {
  begin_stream();
  reader_.decode_chunk(i, buffer_);
  engine_->push_chunk(buffer_.times.data(), buffer_.pages.data(),
                      buffer_.flags.data(), buffer_.size());
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_.capacity_bytes());
}

RunMetrics FileReplay::finish_stream() {
  begin_stream();
  // Same end-of-run rule as a Trace replay: the declared duration, or the last
  // event's timestamp when the header carries none.
  double end_s = reader_.header().duration_s;
  if (end_s <= 0.0 && !reader_.chunks().empty()) {
    end_s = reader_.chunks().back().t_last;
  }
  return engine_->finish(end_s);
}

RunMetrics FileReplay::run() {
  begin_stream();
  for (std::size_t i = 0; i < reader_.chunks().size(); ++i) push_chunk(i);
  return finish_stream();
}

RunMetrics replay_file(const tracefile::TraceReader& reader,
                       const PolicySpec& policy, const EngineConfig& config) {
  return FileReplay(reader, policy, config).run();
}

}  // namespace jpm::sim
