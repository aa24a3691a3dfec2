// The bottom-up scatter of core::run's direction-optimizing rounds:
// still-unclaimed vertices scan their in-edges (the cached transposed
// view, graph::build_transposed_view) and probe the frontier. Its own
// parts are the block index, the read schedule and the per-block pull;
// the staging stage, the update fan-out and the ordered runner
// (run_ordered) are the top-down scan's, from scatter.hpp.
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
/// the transposed view's fixed blocks (graph::kTransposedBlockRecords
/// records; `blocks` holds each block's dst range). A block is NEEDED
/// unless its whole dst range is already claimed (conservative, since
/// the range test also covers ids with no in-edges in the block). The
/// reader prices the rest the way the input device does: needed blocks
/// separated by a gap of skippable blocks no longer than the device's
/// seek-equivalent bytes (DeviceModel::seek_equivalent_bytes — 26
/// blocks on the HDD model, none on the SSD or unthrottled ones) form
/// one SPAN that reads straight through the gap, since reading it costs
/// less than seeking over it. Only blocks outside every span are
/// SKIPPED: counted in ScatterResult::skipped, their bytes never read
/// (the frontier-density-aware reader). Gap blocks are read, counted as
/// scanned and checked like any other, and emit and probe nothing —
/// every run in them is already claimed. Each span is cut into read
/// units of at most `reader.buffer_bytes`, each one positional request
/// on the scan's one open File (replacing the streaming reader —
/// read-ahead does not fit a skip-seek scan), so a unit that starts
/// where the previous one ended continues the device's head.
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
    std::span<const graph::TransposedBlock> blocks,
    const graph::PartitionLayout& layout, std::uint32_t partition,
    const AtomicBitmap& active, const AtomicBitmap& claimed_set,
    const P& program, std::uint32_t round, const io::ReaderOptions& reader,
    std::span<const std::uint64_t> frontier_masks,
    std::span<const std::uint64_t> seen_masks,
    UpdateFanout<typename P::Update>& fanout,
    metrics::Collector* collector = nullptr) {
  constexpr bool kMasked = graph::MaskedProgram<P>;
  constexpr std::uint64_t kBlock = graph::kTransposedBlockRecords;
  const graph::VertexId range_begin = layout.begin(partition);
  const graph::VertexId range_end = layout.end(partition);
  FB_CHECK_MSG(blocks.size() == (num_records + kBlock - 1) / kBlock,
               input_name << " block index covers " << blocks.size()
                          << " blocks for " << num_records << " records");
  [[maybe_unused]] std::uint64_t full = 0;
  if constexpr (kMasked) full = program.full_mask();

  const auto block_count = [&](std::uint64_t b) {
    return b + 1 == blocks.size() ? num_records - b * kBlock : kBlock;
  };
  const auto block_skippable = [&](std::uint64_t b) {
    return claimed_set.all_in_range(
        blocks[b].first_dst, static_cast<std::uint64_t>(blocks[b].last_dst) + 1);
  };

  // One block's pull loop; all run state is local, so every block is
  // self-contained whatever read unit delivered it.
  const auto process_block = [&](std::span<const graph::Edge> window,
                                 ScatterStage<P>& stage) {
    graph::VertexId last_dst = 0;
    bool have_run = false;
    bool claimed = false;
    [[maybe_unused]] std::uint64_t delivered = 0;
    for (const graph::Edge& e : window) {
      FB_CHECK_MSG(e.dst >= range_begin && e.dst < range_end,
                   input_name << " holds edge to " << e.dst
                              << " outside partition " << partition);
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

  // The skip/read schedule, decided once up front (the claimed set is
  // frozen for the round): a needed block joins the previous one's span
  // when the gap between them is at most gap_blocks, and spans fill read
  // units of at most unit_blocks in block order.
  struct ReadUnit {
    std::uint64_t first_block = 0;
    std::uint64_t num_blocks = 0;
  };
  constexpr std::uint64_t kBlockBytes = kBlock * sizeof(graph::Edge);
  const std::uint64_t unit_blocks =
      std::max<std::uint64_t>(1, reader.buffer_bytes / kBlockBytes);
  const std::uint64_t gap_blocks =
      input_dev.model().seek_equivalent_bytes() / kBlockBytes;
  std::vector<ReadUnit> units;
  const auto read_block = [&](std::uint64_t b) {
    if (!units.empty() &&
        units.back().first_block + units.back().num_blocks == b &&
        units.back().num_blocks < unit_blocks) {
      ++units.back().num_blocks;
    } else {
      units.push_back({b, 1});
    }
  };
  ScatterResult total;
  std::uint64_t next = 0;  // first block neither read nor skipped yet
  for (std::uint64_t b = 0; b < blocks.size(); ++b) {
    if (block_skippable(b)) continue;
    // Blocks [next, b) are the skippable gap since the last needed block.
    const bool read_through = !units.empty() && b - next <= gap_blocks;
    for (; next < b; ++next) {
      if (read_through) {
        read_block(next);
      } else {
        total.skipped += block_count(next);
      }
    }
    read_block(b);
    next = b + 1;
  }
  for (; next < blocks.size(); ++next) total.skipped += block_count(next);

  // The scan on run_ordered: each group reads its units' blocks with
  // one batched submission, the units pull block by block, and retire
  // in file order — same records, same per-block windows, so the update
  // files match at every thread count, and on every device (gap blocks
  // emit nothing).
  using Group = ScanGroup<P>;
  const std::unique_ptr<io::File> file = input_dev.open(input_name);
  const auto load = [&](std::uint64_t first, std::uint64_t n) {
    std::vector<Extent> extents;
    for (std::uint64_t u = first; u < first + n; ++u) {
      std::uint64_t records = 0;
      for (std::uint64_t b = 0; b < units[u].num_blocks; ++b) {
        records += block_count(units[u].first_block + b);
      }
      extents.push_back({units[u].first_block * kBlockBytes, records});
    }
    return Group{ScatterStage<P>(program, layout, /*windows=*/nullptr), first,
                 read_extents(*file, extents)};
  };
  // Re-windows the unit on the block boundaries the view fixed at build
  // time.
  const auto work = [&](Group& group, std::uint64_t u) {
    const std::span<const graph::Edge> records = group.read(u);
    std::size_t off = 0;
    for (std::uint64_t b = 0; b < units[u].num_blocks; ++b) {
      const std::size_t n =
          static_cast<std::size_t>(block_count(units[u].first_block + b));
      process_block(records.subspan(off, n), group.stage);
      off += n;
    }
    group.stage.counts.scanned += records.size();
  };
  const auto retire = [&](Group& group, std::uint64_t) {
    metrics::ScopedPhase flush_timer(collector, metrics::Phase::kShuffleFlush);
    group.stage.flush(fanout, total);
  };
  run_ordered(exec, units.size(), read_group_units(input_dev), load, work,
              retire);
  add_live_counts(collector, total);
  return total;
}

}  // namespace fbfs::core::detail
