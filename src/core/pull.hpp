// The bottom-up scatter of core::run's direction-optimizing rounds:
// still-unclaimed vertices scan their in-edges (the cached transposed
// view, graph::build_transposed_view) and probe the frontier. It shares
// the staging stage, the update fan-out and the ordered hand-off with
// the top-down scan in scatter.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
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
/// records; `blocks` holds each block's dst range). A block whose whole
/// dst range is already claimed is SKIPPED — its records are counted in
/// ScatterResult::skipped and its bytes are never read (the
/// frontier-density-aware reader; conservative, since the range test
/// also covers ids with no in-edges in the block). Needed blocks are
/// coalesced into read units of at most `reader.buffer_bytes` and read
/// with one positional request each (replacing the streaming reader —
/// read-ahead does not fit a skip-seek scan).
///
/// Determinism contract, mirroring scatter_partition: the run-tracking
/// state (current destination, claimed flag, delivered-mask
/// accumulator) resets at every BLOCK boundary — fixed at view build
/// time — so serial and parallel runs window identically and a run
/// straddling a boundary re-emits deterministically (byte-identical
/// records for PullCapable, disjoint-mask records with the same union
/// for masked programs; both exact under the idempotent gather). The
/// staging sieve stays off here: claiming already dedupes within a
/// block.
template <graph::GraphProgram P>
  requires(graph::PullCapable<P> || graph::MaskedProgram<P>)
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
                                 ScatterStage<P>& stage,
                                 std::uint64_t& probed) {
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
      ++probed;
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
  // frozen for the round): contiguous needed blocks coalesce into read
  // units of at most unit_blocks, each one positional read.
  struct ReadUnit {
    std::uint64_t first_block = 0;
    std::uint64_t num_blocks = 0;
  };
  const std::uint64_t unit_blocks = std::max<std::uint64_t>(
      1, reader.buffer_bytes / (kBlock * sizeof(graph::Edge)));
  std::vector<ReadUnit> units;
  std::uint64_t skipped = 0;
  for (std::uint64_t b = 0; b < blocks.size(); ++b) {
    if (block_skippable(b)) {
      skipped += block_count(b);
      continue;
    }
    if (!units.empty() &&
        units.back().first_block + units.back().num_blocks == b &&
        units.back().num_blocks < unit_blocks) {
      ++units.back().num_blocks;
    } else {
      units.push_back({b, 1});
    }
  }

  // Reads units[first_unit .. first_unit+n) into per-unit buffers as
  // ONE batched submission — every unit keeps its own File and one
  // positional read covering exactly its coalesced blocks, so the
  // modelled backend (whose read_batch is an in-order read_at loop over
  // fresh file ids) charges exactly what the old per-unit readers did,
  // while a real backend pushes the whole group down one ring
  // submission.
  const auto read_unit_group =
      [&](std::size_t first_unit, std::size_t n,
          std::vector<std::vector<graph::Edge>>& buffers) {
        buffers.assign(n, {});
        std::vector<std::unique_ptr<io::File>> files;
        std::vector<io::ReadRequest> requests;
        files.reserve(n);
        requests.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
          const ReadUnit& unit = units[first_unit + k];
          std::uint64_t unit_records = 0;
          for (std::uint64_t b = 0; b < unit.num_blocks; ++b) {
            unit_records += block_count(unit.first_block + b);
          }
          buffers[k].resize(static_cast<std::size_t>(unit_records));
          files.push_back(input_dev.open(input_name));
          requests.push_back(
              {files.back().get(),
               unit.first_block * kBlock * sizeof(graph::Edge),
               buffers[k].data(),
               static_cast<std::size_t>(unit_records * sizeof(graph::Edge)),
               0});
        }
        input_dev.read_batch(requests);
        for (std::size_t k = 0; k < n; ++k) {
          FB_CHECK_MSG(requests[k].got == requests[k].bytes,
                       input_name << " ends inside its block index ("
                                  << (requests[k].bytes - requests[k].got)
                                  << " bytes short)");
        }
      };

  // Pulls one delivered unit, re-windowing on the block boundaries the
  // view fixed at build time.
  const auto process_unit = [&](const ReadUnit& unit,
                                std::span<const graph::Edge> records,
                                ScatterStage<P>& stage, std::uint64_t& scanned,
                                std::uint64_t& probed) {
    std::size_t off = 0;
    for (std::uint64_t b = 0; b < unit.num_blocks; ++b) {
      const std::size_t n =
          static_cast<std::size_t>(block_count(unit.first_block + b));
      process_block(records.subspan(off, n), stage, probed);
      off += n;
    }
    scanned += records.size();
  };

  // Group size: a real device keeps queue_depth unit reads in flight
  // per submission; the modelled timeline is serial, so groups stay
  // size 1 and the historical read/flush interleaving (and with it the
  // charge sequence on a shared update device) is untouched.
  const std::size_t group_units =
      input_dev.backend_kind() == io::BackendKind::kReal
          ? std::max<std::size_t>(1, input_dev.backend_options().queue_depth)
          : 1;

  if (!exec.parallel()) {
    ScatterStage<P> stage(program, layout, /*sieve=*/false);
    std::uint64_t scanned = 0;
    std::uint64_t probed = 0;
    std::vector<std::vector<graph::Edge>> buffers;
    for (std::size_t g = 0; g < units.size(); g += group_units) {
      const std::size_t n = std::min(group_units, units.size() - g);
      read_unit_group(g, n, buffers);
      for (std::size_t k = 0; k < n; ++k) {
        process_unit(units[g + k], buffers[k], stage, scanned, probed);
        {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_serial(fanout);
        }
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_edges_probed(probed);
      collector->live().add_updates(stage.emitted, 0);
    }
    return {scanned, stage.emitted, 0, probed, skipped};
  }

  // Parallel: one task per unit group, retiring unit-by-unit through
  // the ordered hand-off in file order — same records, same per-block
  // windows, so the update files match the serial bytes.
  const std::size_t num_groups =
      units.empty() ? 0 : (units.size() + group_units - 1) / group_units;
  OrderedGate gate;
  std::atomic<std::uint64_t> scanned_total{0};
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> probed_total{0};
  std::vector<std::future<void>> tasks;
  tasks.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    tasks.push_back(exec.pool->submit([&, g] {
      const std::size_t first_unit = g * group_units;
      const std::size_t n = std::min(group_units, units.size() - first_unit);
      const auto abandon_from = [&](std::size_t from) {
        for (std::size_t c = from; c < first_unit + n; ++c) {
          gate.wait_turn(c);
          gate.complete(c);
        }
      };
      std::vector<std::vector<graph::Edge>> buffers;
      try {
        read_unit_group(first_unit, n, buffers);
      } catch (...) {
        abandon_from(first_unit);
        throw;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t c = first_unit + k;
        ScatterStage<P> stage(program, layout, /*sieve=*/false);
        std::uint64_t scanned = 0;
        std::uint64_t probed = 0;
        try {
          process_unit(units[c], buffers[k], stage, scanned, probed);
        } catch (...) {
          abandon_from(c);
          throw;
        }
        gate.wait_turn(c);
        try {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_locked(fanout);
        } catch (...) {
          gate.complete(c);
          abandon_from(c + 1);
          throw;
        }
        gate.complete(c);
        scanned_total.fetch_add(scanned, std::memory_order_relaxed);
        emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
        probed_total.fetch_add(probed, std::memory_order_relaxed);
        if (collector != nullptr) {
          collector->live().add_edges_scanned(scanned);
          collector->live().add_edges_probed(probed);
          collector->live().add_updates(stage.emitted, 0);
        }
      }
    }));
  }
  join_all(tasks);
  return {scanned_total.load(std::memory_order_relaxed),
          emitted.load(std::memory_order_relaxed), 0,
          probed_total.load(std::memory_order_relaxed), skipped};
}

}  // namespace fbfs::core::detail
