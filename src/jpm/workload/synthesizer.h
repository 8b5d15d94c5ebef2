// Workload synthesizer (paper Section V-A).
//
// Produces page-granular disk-cache access traces with three independently
// controllable characteristics — exactly the knobs the paper sweeps:
//   * data-set size   (files scaled per the paper's sqrt rule),
//   * data rate       (bytes/s offered to the disk cache),
//   * popularity      (fraction of bytes receiving 90% of requests).
//
// Requests arrive as a Poisson process whose rate is slowly modulated
// (sinusoid + per-minute noise) so consecutive 10-minute periods differ the
// way Fig. 9 of the paper shows; each request reads one whole file (pages in
// on-disk order, the first flagged `request_start`).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "jpm/util/rng.h"
#include "jpm/util/units.h"
#include "jpm/workload/fileset.h"
#include "jpm/workload/popularity.h"
#include "jpm/workload/trace.h"

namespace jpm::workload {

struct SynthesizerConfig {
  std::uint64_t dataset_bytes = gib(16);
  double byte_rate = 100e6;     // offered load, bytes/s (paper: 5-200 MB/s)
  double popularity = 0.1;      // paper: 0.05-0.6
  double duration_s = 3600.0;
  std::uint64_t page_bytes = 256 * kKiB;
  double file_scale = 16.0;     // see FileSetConfig::file_scale
  // Sinusoidal rate modulation amplitude (fraction of byte_rate) and period;
  // 0 disables modulation.
  double rate_modulation = 0.2;
  double modulation_period_s = 1800.0;
  // Spacing between consecutive page accesses of one request.
  double intra_request_spacing_s = 2e-3;
  // Probability that a request repeats a recently requested file
  // (recency-biased) instead of drawing fresh from the popularity
  // distribution. Real server traces carry such short-term reuse on top of
  // static popularity; 0 disables it.
  double temporal_locality = 0.0;
  // Fraction of requests that are writes (uploads, logs): the request's
  // pages are overwritten in the cache and flushed to disk later.
  double write_fraction = 0.0;
  // Number of recent requests the locality draw can repeat from.
  std::size_t locality_window = 8192;
  std::uint64_t seed = 1;

  // Rejects unusable workload knobs (zero page_bytes/dataset/duration,
  // probabilities outside [0, 1], negative rates) with a descriptive
  // std::invalid_argument. TraceGenerator calls it on construction.
  void validate() const;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(const SynthesizerConfig& config);
  ~TraceGenerator();
  TraceGenerator(TraceGenerator&&) noexcept;
  TraceGenerator& operator=(TraceGenerator&&) noexcept;

  // Next event in nondecreasing time order; nullopt once duration elapsed.
  std::optional<TraceEvent> next();

  // Restarts the stream from t = 0 with the identical pseudo-random sequence.
  void reset();

  const FileSet& files() const;
  const PopularityModel& popularity() const;
  const SynthesizerConfig& config() const;
  // Popularity-weighted expected bytes per request.
  double mean_request_bytes() const;
  // Total pages in the data set (linear layout).
  std::uint64_t total_pages() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Materializes the configured workload once into an immutable Trace with all
// derived fields (total_pages, duration) filled from the generator, so the
// result can be replayed by any number of engine runs — concurrently and
// without copying — with metrics bit-identical to generator-driven runs.
Trace synthesize_trace(const SynthesizerConfig& config);

}  // namespace jpm::workload
