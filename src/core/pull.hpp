// The bottom-up scatter of core::run's direction-optimizing rounds:
// still-unclaimed vertices scan their in-edges (the cached transposed
// view, graph::build_transposed_view) and probe the frontier. Its own
// part is the per-block pull; the read schedule (plan_scan), the staging
// stage, the update fan-out and the ordered runner (run_ordered) are the
// top-down scan's, from scatter.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/scatter.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::core::detail {

/// One partition's bottom-up pull: scans partition q's TRANSPOSED
/// (in-edge, dst-sorted) file and lets still-unclaimed destinations
/// probe the frontier. Because the file is sorted by destination, a
/// vertex's in-edges form one contiguous run; once a run's vertex is
/// claimed the rest of the run is skipped without touching program
/// state — `probed` counts only the edges that got as far as the
/// bitmap probes, which is where the direction optimisation's savings
/// live.
///
/// Two program families, selected by `if constexpr`:
///
///   * PullCapable (single-query BFS): `claimed` is the engine's
///     visited bitmap; the first successful pull claims the vertex for
///     the round.
///   * MaskedProgram (MultiBfs): `claimed` is the saturation bitmap and
///     the caller additionally passes the MaskStateTracker's flat
///     frontier/seen mask arrays. Each edge pulls
///     `frontier[src] & ~delivered-so-far` — the accumulator starts at
///     the destination's seen mask, so a dst's pulled masks never
///     overlap and their union is exactly what top-down would deliver
///     fresh — and the run is claimed once the accumulator saturates.
///
/// Granularity and the byte-skipping reader: the file is processed in
/// the transposed view's fixed blocks (graph::kBlockRecords records;
/// `blocks` holds each block's dst range). A block is NEEDED unless its
/// whole dst range is already claimed (conservative, since the range
/// test also covers ids with no in-edges in the block). The read
/// schedule is the top-down scan's (plan_scan): needed blocks separated
/// by a gap of skippable blocks no longer than the device's
/// seek-equivalent bytes (DeviceModel::seek_equivalent_bytes — 26 blocks
/// on the HDD model, none on the SSD or unthrottled ones) are read
/// straight through the gap, since reading it costs less than seeking
/// over it. Only blocks outside every such span are SKIPPED: counted in
/// ScatterResult::skipped, their bytes never read (the
/// frontier-density-aware reader). Gap blocks are read, counted as
/// scanned and checked like any other, and emit and probe nothing —
/// every run in them is already claimed. Units are whole blocks,
/// max(1, reader.buffer_bytes / 32 KiB) of them, at fixed positions; a
/// unit reads its kept blocks with positional requests on the scan's one
/// open File (a span crossing a unit boundary continues the device's
/// head in the next unit's request, so it costs no seek). Every block a
/// pull reads is CHECKed against its index entry.
///
/// Determinism contract, mirroring scatter_partition: the run-tracking
/// state (current destination, claimed flag, delivered-mask
/// accumulator) resets at every BLOCK boundary — fixed at view build
/// time — so serial and parallel runs, and the schedules of devices
/// with different seek costs, window identically and a run
/// straddling a boundary re-emits deterministically (byte-identical
/// records for PullCapable, disjoint-mask records with the same union
/// for masked programs; both exact under the idempotent gather). The
/// staging sieve stays off here, so a pull takes no sieve window:
/// claiming already dedupes within a block.
template <graph::GraphProgram P>
ScatterResult pull_partition(
    const ExecContext& exec, io::Device& input_dev,
    const std::string& input_name, std::uint64_t num_records,
    std::span<const graph::EdgeBlock> blocks,
    const graph::PartitionLayout& layout, std::uint32_t partition,
    const AtomicBitmap& active, const AtomicBitmap& claimed_set,
    const P& program, std::uint32_t round, const io::ReaderOptions& reader,
    std::span<const std::uint64_t> frontier_masks,
    std::span<const std::uint64_t> seen_masks,
    UpdateFanout<typename P::Update>& fanout,
    metrics::Collector* collector = nullptr) {
  constexpr bool kMasked = graph::MaskedProgram<P>;
  constexpr std::uint64_t kBlock = graph::kBlockRecords;
  const graph::VertexId range_begin = layout.begin(partition);
  const graph::VertexId range_end = layout.end(partition);
  FB_CHECK_MSG(blocks.size() == (num_records + kBlock - 1) / kBlock,
               input_name << " block index covers " << blocks.size()
                          << " blocks for " << num_records << " records");
  [[maybe_unused]] std::uint64_t full = 0;
  if constexpr (kMasked) full = program.full_mask();

  // One block's pull loop; all run state is local, so every block is
  // self-contained whatever read unit delivered it. Its records must lie
  // in its index entry, and the entry in the partition's range: a block
  // holding a destination its entry leaves out could be skipped while
  // that destination still needs it.
  const auto process_block = [&](std::span<const graph::Edge> window,
                                 std::uint64_t b, ScatterStage<P>& stage) {
    const graph::EdgeBlock& entry = blocks[b];
    FB_CHECK_MSG(entry.first >= range_begin && entry.first <= entry.last &&
                     entry.last < range_end,
                 input_name << " block " << b << " indexes destinations ["
                            << entry.first << ", " << entry.last
                            << "] outside partition " << partition);
    graph::VertexId last_dst = 0;
    bool have_run = false;
    bool claimed = false;
    [[maybe_unused]] std::uint64_t delivered = 0;
    for (const graph::Edge& e : window) {
      FB_CHECK_MSG(e.dst >= entry.first && e.dst <= entry.last,
                   input_name << " block " << b << " holds an edge to "
                              << e.dst << " outside its index entry ["
                              << entry.first << ", " << entry.last << "]");
      if (!have_run || e.dst != last_dst) {
        FB_CHECK_MSG(!have_run || e.dst > last_dst,
                     input_name << " is not sorted by destination at "
                                << e.dst);
        have_run = true;
        last_dst = e.dst;
        claimed = claimed_set.test(e.dst);
        if constexpr (kMasked) delivered = claimed ? 0 : seen_masks[e.dst];
      }
      if (claimed) continue;
      ++stage.counts.probed;
      if (!active.test(e.src)) continue;
      typename P::Update u;
      if constexpr (kMasked) {
        const std::uint64_t mask = frontier_masks[e.src] & ~delivered;
        if (program.pull_masked(e, round, mask, u)) {
          stage.stage(u);
          delivered |= mask;
          if (delivered == full) claimed = true;
        }
      } else {
        if (program.pull(e, round, u)) {
          stage.stage(u);
          claimed = true;
        }
      }
    }
  };

  // The schedule, decided once up front (the claimed set is frozen for
  // the round), on units of whole blocks.
  constexpr std::uint64_t kBlockBytes = kBlock * sizeof(graph::Edge);
  const ScanSchedule schedule = plan_scan(
      num_records,
      std::max<std::uint64_t>(1, reader.buffer_bytes / kBlockBytes) * kBlock,
      input_dev.model().seek_equivalent_bytes() / kBlockBytes,
      [&](std::uint64_t b) {
        return !claimed_set.all_in_range(
            blocks[b].first, static_cast<std::uint64_t>(blocks[b].last) + 1);
      });

  // The scan on run_ordered: each group reads its units' blocks with
  // one batched submission, the units pull block by block, and retire
  // in file order — same records, same per-block windows, so the update
  // files match at every thread count, and on every device (gap blocks
  // emit nothing).
  using Group = ScanGroup<P>;
  const std::unique_ptr<io::File> file =
      open_scan_file(input_dev, input_name, 0, num_records);
  const auto load = [&](std::uint64_t first, std::uint64_t n) {
    return Group{ScatterStage<P>(program, layout, /*windows=*/nullptr), first,
                 read_units(*file, 0, schedule, first, n)};
  };
  const auto work = [&](Group& group, std::uint64_t k) {
    const std::span<const graph::Edge> records = group.read(k);
    std::size_t off = 0;
    for (const Piece& piece : schedule.unit(k)) {
      const auto n = static_cast<std::size_t>(piece.records);
      process_block(records.subspan(off, n), piece.block, group.stage);
      off += n;
    }
    group.stage.counts.scanned += records.size();
  };
  ScatterResult total;
  const auto retire = [&](Group& group, std::uint64_t) {
    metrics::ScopedPhase flush_timer(collector, metrics::Phase::kShuffleFlush);
    group.stage.flush(fanout, total);
  };
  run_ordered(exec, schedule.num_units(), read_group_units(input_dev), load,
              work, retire);
  total.skipped = schedule.skipped;
  add_live_counts(collector, total);
  return total;
}

}  // namespace fbfs::core::detail
