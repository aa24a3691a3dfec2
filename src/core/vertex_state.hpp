// Vertex state on the device. core::run keeps one State record file per
// partition, so resident memory per phase is one partition's states
// plus stream buffers — the out-of-core regime of the paper. This
// header holds the passes that read or write those files: init (write
// each partition's initial states), gather (fold a round's update files
// into the states), and the final id-order collect. It also holds the
// MaskStateTracker, the engine-side mirror of a masked program's
// per-vertex masks.
#pragma once

#include <bit>
#include <cstdint>
#include <future>
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
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::core {

/// Partition p's State file on the state device (rounds overwrite it in
/// place).
std::string state_file_name(const graph::PartitionedGraph& pg,
                            std::uint32_t p);

namespace detail {

/// Engine-written record files (states, updates, stays) all carry the
/// codec header (storage/codec.hpp), so whole files are written and
/// read through the codec layer; the partitioner's edge files predate
/// the engine and stay headerless.
template <typename T>
void write_records(io::Device& device, const std::string& name,
                   std::span<const T> records, std::size_t buffer_bytes) {
  io::codec::CodecWriter<T> writer(device, name, buffer_bytes);
  writer.append_batch(records);
  writer.close();
}

/// Engine-side mirror of a masked program's per-vertex masks
/// (graph::MaskedProgram — MultiBfs). The engine keeps vertex State on
/// device between phases, but trimming, bottom-up claiming, and the
/// direction model need O(1) access to every vertex's seen/frontier
/// mask each round; the tracker shadows them in flat arrays, refreshed
/// by the init and gather passes whenever a partition's states are
/// (re)written. Observed partitions cover disjoint vertex ranges, so
/// concurrent observe_range calls (the parallel init pass) never touch
/// the same slot; `saturated` is the trim/claim bitmap — a vertex every
/// query has seen can never gather anything new, its out-edges are dead
/// and bottom-up rounds skip its in-edge runs. Saturation is monotone, so
/// bits are only ever added.
///
/// Partitions gather_partitions skips (no pending updates) keep stale
/// mirror entries — exactly: their states did not change.
template <graph::GraphProgram P>
struct MaskStateTracker {
  const P& program;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> seen;
  AtomicBitmap saturated;

  MaskStateTracker(const P& program, std::uint64_t num_vertices)
      : program(program),
        frontier(num_vertices, 0),
        seen(num_vertices, 0),
        saturated(num_vertices) {}

  void observe_range(graph::VertexId begin,
                     std::span<const typename P::State> states) {
    const std::uint64_t full = program.full_mask();
    for (std::uint64_t i = 0; i < states.size(); ++i) {
      const std::uint64_t v = begin + i;
      frontier[v] = program.frontier_mask(states[i]);
      seen[v] = program.seen_mask(states[i]);
      if (seen[v] == full) saturated.set(v);
    }
  }

  struct RoundMasks {
    /// Aggregate popcount of the frontier masks over the round's active
    /// vertices — the direction model's per-query frontier density.
    std::uint64_t frontier_bits = 0;
    /// OR of those masks: which queries still have any frontier at all.
    std::uint64_t active_mask = 0;
  };
  RoundMasks round_masks(const AtomicBitmap& active) const {
    RoundMasks out;
    for (std::uint64_t w = 0; w < active.num_words(); ++w) {
      std::uint64_t bits = active.word(w);
      while (bits != 0) {
        const std::uint64_t v =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        out.frontier_bits +=
            static_cast<std::uint64_t>(std::popcount(frontier[v]));
        out.active_mask |= frontier[v];
      }
    }
    return out;
  }
};

/// The init pass: per partition, runs program.init over its vertex
/// range, writes its state file, and marks the initially-active
/// vertices in `active`. It reads no edge file. Partitions are
/// independent (own files, atomic bitmap), so with a pool they run
/// concurrently, one task each.
/// Masked programs additionally get the initially-active vertices'
/// arrival records appended to `arrivals` (RunResult::arrivals) in id
/// order, and `tracker` sees each partition's states once they are
/// final.
template <graph::GraphProgram P>
void init_partition_states(const graph::PartitionedGraph& pg,
                           const io::StoragePlan& plan,
                           std::size_t write_buffer_bytes, const P& program,
                           AtomicBitmap& active, const ExecContext& exec = {},
                           std::vector<typename P::Update>* arrivals = nullptr,
                           MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  // Per-partition arrival records, concatenated in partition order once
  // every (possibly concurrent) partition is done.
  std::vector<std::vector<Update>> part_arrivals(
      graph::MaskedProgram<P> && arrivals != nullptr ? layout.num_partitions()
                                                     : 0);
  const auto init_one = [&](std::uint32_t p) {
    const graph::VertexId begin = layout.begin(p);
    std::vector<State> states(layout.size(p));
    for (std::uint64_t i = 0; i < states.size(); ++i) {
      const graph::VertexId v = begin + static_cast<graph::VertexId>(i);
      bool is_active = false;
      program.init(v, states[i], is_active);
      if (is_active) {
        active.set(v);
        if constexpr (graph::MaskedProgram<P>) {
          if (arrivals != nullptr) {
            part_arrivals[p].push_back(program.arrival(v, states[i]));
          }
        }
      }
    }
    write_records<State>(plan.state(), state_file_name(pg, p), states,
                         write_buffer_bytes);
    if constexpr (graph::MaskedProgram<P>) {
      if (tracker != nullptr) {
        tracker->observe_range(begin, std::span<const State>(states));
      }
    }
  };
  if (!exec.parallel() || layout.num_partitions() == 1) {
    for (std::uint32_t p = 0; p < layout.num_partitions(); ++p) init_one(p);
  } else {
    std::vector<std::future<void>> tasks;
    tasks.reserve(layout.num_partitions());
    for (std::uint32_t p = 0; p < layout.num_partitions(); ++p) {
      tasks.push_back(exec.pool->submit([&init_one, p] { init_one(p); }));
    }
    join_all(tasks);
  }
  for (const std::vector<Update>& part : part_arrivals) {
    arrivals->insert(arrivals->end(), part.begin(), part.end());
  }
}

/// Gather: partitions with no pending updates keep their state file
/// untouched.
///
/// With a pool, each partition's vertex range is split into contiguous
/// per-worker subranges: every worker scans the full (in-memory) update
/// batch and folds only the updates addressed into its own subrange, so
/// no state cell is ever touched by two workers and each cell still
/// sees its updates in file order. The fold result is bit-identical to
/// the serial loop for any gather, ordered or not — partitioning by
/// destination preserves per-cell order — though the engine contract
/// (program.hpp) additionally requires gathers to be order-free exact
/// reductions.
///
/// Masked programs append the arrival record of every vertex this
/// gather activated to `arrivals` (partitions in order, ids in order
/// within each — activations only ever land in the gathered partition's
/// own range), and `tracker` sees each touched partition's states
/// after the gather; skipped partitions keep their previous (still
/// accurate) mirror entries.
template <graph::GraphProgram P>
void gather_partitions(const graph::PartitionedGraph& pg,
                       const io::StoragePlan& plan,
                       const io::ReaderOptions& reader,
                       std::size_t write_buffer_bytes, const P& program,
                       const std::vector<std::uint64_t>& pending_updates,
                       AtomicBitmap& next_active, const ExecContext& exec = {},
                       metrics::Collector* collector = nullptr,
                       std::vector<typename P::Update>* arrivals = nullptr,
                       MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  for (std::uint32_t q = 0; q < layout.num_partitions(); ++q) {
    if (pending_updates[q] == 0) continue;
    const graph::VertexId begin = layout.begin(q);
    std::vector<State> states = io::codec::read_all<State>(
        plan.state(), state_file_name(pg, q), reader, layout.size(q));
    {
      metrics::ScopedPhase gather_timer(collector, metrics::Phase::kGather);
      if (!exec.parallel()) {
        auto updates = io::codec::open_reader<Update>(
            plan.updates(), update_file_name(pg, q), reader);
        for (auto batch = updates->next_batch(); !batch.empty();
             batch = updates->next_batch()) {
          for (const Update& u : batch) {
            FB_CHECK_MSG(layout.owner(u.dst) == q,
                         "update target " << u.dst
                                          << " misrouted into partition " << q
                                          << " of " << pg.meta.name);
            if (program.gather(u, states[u.dst - begin])) {
              next_active.set(u.dst);
            }
          }
        }
      } else {
        const std::vector<Update> updates = io::codec::read_all<Update>(
            plan.updates(), update_file_name(pg, q), reader,
            pending_updates[q]);
        parallel_for_ranges(
            *exec.pool, states.size(), exec.threads(),
            [&](const IndexRange& r) {
              // The worker owning the range start audits routing for
              // the whole batch (once, not per worker).
              const bool audit = r.begin == 0;
              for (const Update& u : updates) {
                if (audit) {
                  FB_CHECK_MSG(layout.owner(u.dst) == q,
                               "update target "
                                   << u.dst << " misrouted into partition "
                                   << q << " of " << pg.meta.name);
                }
                const std::uint64_t i = u.dst - begin;
                if (i < r.begin || i >= r.end) continue;
                if (program.gather(u, states[i])) {
                  next_active.set(u.dst);
                }
              }
            });
      }
    }
    write_records<State>(plan.state(), state_file_name(pg, q), states,
                         write_buffer_bytes);
    if constexpr (graph::MaskedProgram<P>) {
      if (arrivals != nullptr) {
        for (std::uint64_t i = 0; i < states.size(); ++i) {
          const graph::VertexId v = begin + static_cast<graph::VertexId>(i);
          if (next_active.test(v)) {
            arrivals->push_back(program.arrival(v, states[i]));
          }
        }
      }
      if (tracker != nullptr) {
        tracker->observe_range(begin, std::span<const State>(states));
      }
    }
  }
}

/// Reads the final per-partition state files back in id order.
template <graph::GraphProgram P>
std::vector<typename P::State> collect_states(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    const io::ReaderOptions& reader) {
  using State = typename P::State;
  std::vector<State> out;
  out.reserve(pg.layout.num_vertices());
  for (std::uint32_t p = 0; p < pg.layout.num_partitions(); ++p) {
    const std::vector<State> states = io::codec::read_all<State>(
        plan.state(), state_file_name(pg, p), reader, pg.layout.size(p));
    out.insert(out.end(), states.begin(), states.end());
  }
  return out;
}

}  // namespace detail
}  // namespace fbfs::core
