// Per-iteration engine statistics — the single source of truth.
//
// Every engine fills the same record, trim counters simply stay zero
// for runs that never trim, and metrics::RunStats aggregates the rows.
//
// RoleIo carries the full per-role device-counter deltas — not only
// bytes but ops, seeks, and the token-bucket model's busy time
// (IoStats::busy_ns / model_busy_ns), which is what the modelled iowait
// ratio of Fig. 6 is computed from. Per-role attribution is exact when
// the plan's roles are dedicated(); roles sharing a device all surface
// the shared device's counters, so the distinct-device totals below are
// deduplicated by device, never by role.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "storage/storage_plan.hpp"

namespace fbfs::metrics {

/// Device-counter deltas of one stream role over one iteration.
struct RoleIo {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t seeks = 0;
  std::uint64_t busy_ns = 0;        // scaled (wall-clock) device busy time
  std::uint64_t model_busy_ns = 0;  // unscaled modelled service time

  std::uint64_t bytes_moved() const { return bytes_read + bytes_written; }
};

struct IterationStats {
  std::uint32_t iteration = 0;             // 0-based round index
  std::uint32_t partitions_scattered = 0;  // partitions not skipped
  std::uint32_t partitions_skipped = 0;    // no active source in range
  std::uint64_t updates_emitted = 0;
  /// Updates dropped at the scatter staging buffers (scatter declined
  /// or collapsed by the sieve) — they never reached the shuffle
  /// writers.
  std::uint64_t updates_sieved = 0;
  /// Update-file bytes written this round (codec headers included),
  /// bucketed by the chosen on-disk format: [raw, bitmap, varint] in
  /// io::codec::Format order. Kept as a plain array so this header
  /// stays decoupled from the codec layer.
  std::array<std::uint64_t, 3> update_codec_bytes{};
  std::uint64_t activated = 0;  // vertices active entering the next round
  double seconds = 0.0;
  double scatter_seconds = 0.0;  // edge-scan + update-shuffle share
  double gather_seconds = 0.0;   // update-fold + apply + write-back share

  /// Per-role device-counter deltas over this round, indexed by
  /// io::Role (see the header comment for the shared-device caveat).
  std::array<RoleIo, io::kNumRoles> io{};

  /// Totals over the plan's DISTINCT devices (each device counted once,
  /// however many roles map to it) — the round's true traffic.
  std::uint64_t device_bytes_read = 0;
  std::uint64_t device_bytes_written = 0;
  std::uint64_t device_busy_ns = 0;
  std::uint64_t device_model_busy_ns = 0;
  /// Busiest single device this round (scaled ns): the modelled
  /// bottleneck spindle.
  std::uint64_t max_device_busy_ns = 0;

  /// Direction strategy (core::run; top-down-only engines leave the
  /// whole block default). `bottomup` records the mode this round ran
  /// in; edges_scanned counts edge records the scatter/pull actually
  /// read (a bottom-up round's include the already-claimed blocks it
  /// reads through rather than seek over); edges_probed counts the
  /// bottom-up subset that survived the per-vertex claimed
  /// short-circuit and probed the frontier bitmap (top-down rounds set
  /// probed = scanned). The modelled byte costs
  /// are the cost model's two sides for this round — what auto
  /// compared, recorded whichever way it decided.
  bool bottomup = false;
  std::uint64_t edges_scanned = 0;
  std::uint64_t edges_probed = 0;
  double modelled_topdown_bytes = 0.0;
  double modelled_bottomup_bytes = 0.0;
  /// Edge-file bytes the round's scans never read: top-down, partition
  /// file blocks whose source range held no active source; bottom-up,
  /// transposed-view blocks whose whole destination range was already
  /// claimed (core/scatter.hpp's plan_scan). Such blocks in a gap
  /// shorter than the device's seek-equivalent bytes are read through
  /// instead and count in edges_scanned.
  std::uint64_t edge_bytes_skipped = 0;

  /// Batched multi-source traversal (core::run over a masked program —
  /// MultiBfs; every other engine/program leaves both zero).
  /// frontier_mask_bits = aggregate popcount of the frontier masks over
  /// the round's active vertices; queries_active = queries with any
  /// frontier bit left entering the round.
  std::uint64_t frontier_mask_bits = 0;
  std::uint32_t queries_active = 0;

  /// Trim life cycle (core::run; zero for the untrimmed engines).
  /// Resolution counters land on the round that RESOLVED the stream —
  /// the next scan of that partition — not the round that started it.
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint32_t trims_failed = 0;
  /// Survivor edges accepted by streams STARTED this round.
  std::uint64_t stay_edges_written = 0;

  const RoleIo& role_io(io::Role role) const {
    return io[static_cast<std::size_t>(role)];
  }

  /// Fig. 6's modelled iowait ratio for this round: the share of the
  /// round's wall time the bottleneck device was busy (the engine is a
  /// single pipeline, so the busiest spindle is what it waits on).
  /// Clamped to [0, 1]; needs a time-scaled run (busy_ns is the scaled
  /// busy time) — at FASTBFS_TIME_SCALE=0 it reads 0.
  double modelled_iowait() const {
    if (seconds <= 0.0) return 0.0;
    return std::min(
        1.0, static_cast<double>(max_device_busy_ns) * 1e-9 / seconds);
  }
};

}  // namespace fbfs::metrics
