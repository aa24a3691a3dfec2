// Collector: the engines' observability hook.
//
// inmem::run and core::run both accept an optional
// `metrics::Collector*`. When it is null the engines run exactly as
// before — every metrics call site is behind an `if (collector)` (or
// inside ScopedPhase, which checks internally), so the null path does
// no allocation, takes no lock, and touches no atomic beyond what the
// engines already did; the metrics tests and bench/metrics_smoke pin
// that contract. Collection also never perturbs results: recording is
// off the data path entirely, so update/stay/state files stay
// byte-identical with metrics on and off (pinned by the on/off
// bit-identity test).
//
// Recording path: hot loops bump LiveOps (relaxed atomics) and record
// phase latencies into per-phase ShardedHistograms (per-thread shards,
// relaxed, lock-free). At each iteration boundary the engine hands its
// finished IterationStats to end_iteration(), which drains the shards
// into that iteration's row — the merge point where the sharded counts
// become exact histograms.
//
// The optional sampler thread (CollectorOptions::sampler_interval_
// seconds > 0) wakes on its interval and logs a live rate line from
// LiveOps deltas — elbencho's live-ops view, useful on runs whose
// iterations take minutes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/stopwatch.hpp"
#include "metrics/iteration_stats.hpp"
#include "metrics/latency_histogram.hpp"
#include "metrics/live_ops.hpp"
#include "metrics/run_stats.hpp"

namespace fbfs::metrics {

struct CollectorOptions {
  /// Shards per phase histogram; sized to the engine's worker-thread
  /// count (rounded up to a power of two, clamped to [1, 256]).
  std::size_t histogram_shards = 16;
  /// > 0 starts the background sampler thread logging a live rate line
  /// (FASTBFS_LOG=info) every interval.
  double sampler_interval_seconds = 0.0;
};

/// Reads the `metrics.*` keys: histogram_shards (count) and
/// sampler_interval (seconds; 0 disables the sampler).
CollectorOptions collector_options_from_config(const Config& config);

class Collector {
 public:
  explicit Collector(CollectorOptions options = {});
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hot-path recording (sharded, relaxed, lock-free).
  void record_phase_ns(Phase phase, std::uint64_t ns) {
    phases_[static_cast<std::size_t>(phase)]->record(ns);
  }

  LiveOps& live() { return live_; }
  const LiveOps& live() const { return live_; }

  /// Iteration boundary: stores `stats` as the next RunStats row and
  /// drains every phase's shards into it. Called by the engine after
  /// its recording workers have joined, which is what makes the
  /// drained histograms exact.
  void end_iteration(const IterationStats& stats);

  /// The accumulated run record. Stable between end_iteration calls;
  /// typically read after the engine returns.
  const RunStats& run_stats() const { return run_; }
  RunStats& run_stats() { return run_; }

 private:
  void sampler_loop();

  CollectorOptions options_;
  std::vector<std::unique_ptr<ShardedHistogram>> phases_;  // kNumPhases
  LiveOps live_;
  RunStats run_;
  Stopwatch run_clock_;

  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  std::thread sampler_;
};

/// RAII phase timer. A null collector costs one pointer test — no
/// clock read, no allocation, no atomics.
class ScopedPhase {
 public:
  ScopedPhase(Collector* collector, Phase phase)
      : collector_(collector), phase_(phase) {
    if (collector_ != nullptr) start_ = clock::now();
  }
  ~ScopedPhase() {
    if (collector_ != nullptr) {
      collector_->record_phase_ns(
          phase_, static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          clock::now() - start_)
                          .count()));
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  using clock = std::chrono::steady_clock;

  Collector* collector_;
  Phase phase_;
  clock::time_point start_{};
};

}  // namespace fbfs::metrics
