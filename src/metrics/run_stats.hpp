// RunStats: one run's full observability record — per-iteration
// IterationStats rows, per-iteration x per-phase latency histograms,
// the final LiveOps counters — plus the two renderers (aligned text
// table, Json sections) the benches report through instead of
// hand-rolling stats.
#pragma once

#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/iteration_stats.hpp"
#include "metrics/json_writer.hpp"
#include "metrics/latency_histogram.hpp"
#include "metrics/live_ops.hpp"

namespace fbfs::metrics {

/// The engine phases histograms are kept for. kScatter times one
/// partition's edge scan; kShuffleFlush times each update fan-out
/// flush (one per scatter batch or parallel chunk); kGather times one
/// partition's update fold (update read included); kTrimResolve one
/// pending stay-stream resolution (core only). No engine records
/// kApply (no program has an apply pass); its histogram stays empty
/// and keeps its slot so reports that list every phase still read it.
enum class Phase : std::size_t {
  kScatter = 0,
  kShuffleFlush = 1,
  kGather = 2,
  kApply = 3,
  kTrimResolve = 4,
};
inline constexpr std::size_t kNumPhases = 5;

const char* to_string(Phase phase);

/// One iteration's stats row plus its phase histograms (drained from
/// the Collector's shards at the iteration boundary).
struct IterationMetrics {
  IterationStats stats;
  std::array<LatencyHistogram, kNumPhases> phase{};

  const LatencyHistogram& phase_hist(Phase p) const {
    return phase[static_cast<std::size_t>(p)];
  }
};

struct RunStats {
  std::string label;  // "xstream bfs", "fastbfs bfs", ...
  std::vector<IterationMetrics> iterations;
  LiveOpsSnapshot ops{};      // final live counters
  double wall_seconds = 0.0;  // Collector construction -> last iteration

  // ---- aggregates over the rows.
  std::uint64_t bytes_read(io::Role role) const;
  std::uint64_t bytes_written(io::Role role) const;
  /// Distinct-device totals (each device counted once per round).
  std::uint64_t device_bytes_read() const;
  std::uint64_t device_bytes_written() const;
  std::uint64_t device_bytes_moved() const {
    return device_bytes_read() + device_bytes_written();
  }
  std::uint64_t updates_emitted() const;
  std::uint64_t updates_sieved() const;
  /// Edge records the scatter/pull phases actually read, summed over
  /// the rows (top-down scans + bottom-up in-edge scans).
  std::uint64_t edges_scanned() const;
  /// The bottom-up subset that probed the frontier bitmap (top-down
  /// rounds count their whole scan).
  std::uint64_t edges_probed() const;
  /// Rounds the direction strategy ran bottom-up.
  std::uint32_t bottomup_rounds() const;
  /// Transposed-view bytes bottom-up rounds never read because whole
  /// blocks' dst ranges were already claimed (the frontier-density-
  /// aware reader), summed over the rows.
  std::uint64_t edge_bytes_skipped() const;
  /// Update-file bytes written over the run, bucketed by on-disk codec
  /// format: [raw, bitmap, varint] (io::codec::Format order).
  std::array<std::uint64_t, 3> update_codec_bytes() const;
  /// Busy-time-weighted mean of the per-iteration modelled iowait:
  /// sum(max_device_busy) / sum(round seconds), clamped to [0, 1].
  double modelled_iowait() const;
  /// All iterations' histograms of one phase, merged (exactly).
  LatencyHistogram phase_total(Phase p) const;

  /// Aligned per-iteration table + per-phase histogram summaries.
  void print(std::ostream& os = std::cout) const;

  /// Emits the run under the currently open JSON section: totals, the
  /// per-phase histogram digests, and one "iterN" subsection per round
  /// (role bytes, iowait, trim counters).
  void write_json(Json& json) const;
};

}  // namespace fbfs::metrics
