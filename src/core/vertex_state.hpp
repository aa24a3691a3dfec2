// Vertex state of a core::run call, and the passes over it: init (each
// partition's initial states), gather (fold a round's updates into the
// states) and the final id-order collect. The states live in a
// StateStore — one State file per partition on the plan's state device
// (the out-of-core regime of the paper: resident memory per phase is one
// partition's states plus stream buffers), or, when the run's memory
// budget holds them all, one run-owned vector. Gather decodes each
// partition's updates from its file or from the encoded blob the budget
// kept in memory, and CHECKs the decoded count against scatter's on
// either path. This header also holds the MaskStateTracker, the
// engine-side mirror of a masked program's per-vertex masks.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
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

/// Where a run's vertex states live: partition p's states in its State
/// file on the plan's state device, or — `resident`, when the run's
/// memory budget holds n × sizeof(State) — the slice [begin(p), end(p))
/// of one run-owned vector, with no state file ever created. The passes
/// reach the states only through update() and collect(), so this is the
/// one place the two regimes differ.
template <graph::GraphProgram P>
class StateStore {
 public:
  using State = typename P::State;

  StateStore(const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
             const io::ReaderOptions& reader, std::size_t write_buffer_bytes,
             bool resident)
      : pg_(pg),
        plan_(plan),
        reader_(reader),
        write_buffer_bytes_(write_buffer_bytes),
        resident_(resident) {
    if (resident_) states_.resize(pg.layout.num_vertices());
  }

  /// Runs fn(std::span<State>) over partition p's states and keeps what
  /// it leaves there. From the file, `load` reads the states fn starts
  /// from (false: value-initialised, for init) and the result is written
  /// back; resident, fn works on the vector's slice in place. Partitions
  /// are disjoint, so calls for different partitions may run
  /// concurrently.
  template <typename Fn>
  void update(std::uint32_t p, bool load, Fn&& fn) {
    const graph::PartitionLayout& layout = pg_.layout;
    if (resident_) {
      fn(std::span<State>(states_).subspan(layout.begin(p), layout.size(p)));
      return;
    }
    const std::string name = state_file_name(pg_, p);
    std::vector<State> states =
        load ? io::codec::read_all<State>(plan_.state(), name, reader_,
                                          layout.size(p))
             : std::vector<State>(layout.size(p));
    fn(std::span<State>(states));
    write_records<State>(plan_.state(), name, states, write_buffer_bytes_);
  }

  /// Every vertex's state in id order: the resident vector moved out, or
  /// the files read back partition by partition. Call once, last.
  std::vector<State> collect() {
    if (resident_) return std::move(states_);
    std::vector<State> out;
    out.reserve(pg_.layout.num_vertices());
    for (std::uint32_t p = 0; p < pg_.layout.num_partitions(); ++p) {
      const std::vector<State> states = io::codec::read_all<State>(
          plan_.state(), state_file_name(pg_, p), reader_,
          pg_.layout.size(p));
      out.insert(out.end(), states.begin(), states.end());
    }
    return out;
  }

 private:
  const graph::PartitionedGraph& pg_;
  const io::StoragePlan& plan_;
  io::ReaderOptions reader_;
  std::size_t write_buffer_bytes_;
  bool resident_;
  std::vector<State> states_;  // resident only
};

/// Engine-side mirror of a masked program's per-vertex masks
/// (graph::MaskedProgram — MultiBfs). The engine's StateStore may keep
/// vertex State on device between phases, but trimming, bottom-up
/// claiming, and the direction model need O(1) access to every vertex's
/// seen/frontier mask each round; the tracker shadows them in flat
/// arrays, refreshed by the init and gather passes whenever a
/// partition's states are (re)written. Observed partitions cover
/// disjoint vertex ranges, so concurrent observe_range calls (the
/// parallel init pass) never touch the same slot; `saturated` is the
/// trim/claim bitmap — a vertex every query has seen can never gather
/// anything new, its out-edges are dead and bottom-up rounds skip its
/// in-edge runs. Saturation is monotone, so bits are only ever added.
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
/// range into `store` and marks the initially-active vertices in
/// `active`. It reads no edge file. Partitions are independent (own
/// states, atomic bitmap), so with a pool they run concurrently, one
/// task each.
/// Masked programs additionally get the initially-active vertices'
/// arrival records appended to `arrivals` (RunResult::arrivals) in id
/// order, and `tracker` sees each partition's states once they are
/// final.
template <graph::GraphProgram P>
void init_partition_states(const graph::PartitionedGraph& pg,
                           StateStore<P>& store, const P& program,
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
    store.update(p, /*load=*/false, [&](std::span<State> states) {
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
      if constexpr (graph::MaskedProgram<P>) {
        if (tracker != nullptr) {
          tracker->observe_range(begin, std::span<const State>(states));
        }
      }
    });
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

/// Gather: folds each partition's pending updates into its states in
/// `store`; partitions with no pending updates keep their states
/// untouched. Partition q's updates come from resident[q] when the
/// scatter phase kept its encoded blob in memory (decoded through the
/// same codec readers, and freed once folded) and from its update file
/// otherwise. Every slot of `resident` is empty on return. Each
/// partition must decode to exactly pending_updates[q] records, on the
/// serial and the parallel path alike: a raw file carries no count of
/// its own, so this is what catches one that lost whole records.
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
                       const io::ReaderOptions& reader, StateStore<P>& store,
                       const P& program,
                       const std::vector<std::uint64_t>& pending_updates,
                       std::vector<std::vector<std::byte>>& resident,
                       AtomicBitmap& next_active, const ExecContext& exec = {},
                       metrics::Collector* collector = nullptr,
                       std::vector<typename P::Update>* arrivals = nullptr,
                       MaskStateTracker<P>* tracker = nullptr) {
  using State = typename P::State;
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  for (std::uint32_t q = 0; q < layout.num_partitions(); ++q) {
    std::vector<std::byte> blob = std::exchange(resident[q], {});
    if (pending_updates[q] == 0) continue;
    const graph::VertexId begin = layout.begin(q);
    store.update(q, /*load=*/true, [&](std::span<State> states) {
      {
        metrics::ScopedPhase gather_timer(collector, metrics::Phase::kGather);
        const std::string file = update_file_name(pg, q);
        const std::string name = blob.empty() ? file : file + " (in memory)";
        const std::unique_ptr<io::RecordSource<Update>> updates =
            blob.empty()
                ? io::codec::open_reader<Update>(plan.updates(), file, reader)
                : io::codec::open_reader<Update>(
                      io::open_memory_reader(std::move(blob)), name,
                      reader.buffer_bytes);
        if (!exec.parallel()) {
          // A raw file's header carries no count, so a stream that lost
          // whole records is caught here, as read_all catches it below.
          std::uint64_t folded = 0;
          for (auto batch = updates->next_batch(); !batch.empty();
               batch = updates->next_batch()) {
            folded += batch.size();
            for (const Update& u : batch) {
              FB_CHECK_MSG(layout.owner(u.dst) == q,
                           "update target " << u.dst
                                            << " misrouted into partition "
                                            << q << " of " << pg.meta.name);
              if (program.gather(u, states[u.dst - begin])) {
                next_active.set(u.dst);
              }
            }
          }
          FB_CHECK_MSG(folded == pending_updates[q],
                       name << " decodes to " << folded
                            << " records, expected " << pending_updates[q]);
        } else {
          const std::vector<Update> batch =
              io::codec::read_all<Update>(*updates, name, pending_updates[q]);
          parallel_for_ranges(
              *exec.pool, states.size(), exec.threads(),
              [&](const IndexRange& r) {
                // The worker owning the range start audits routing for
                // the whole batch (once, not per worker).
                const bool audit = r.begin == 0;
                for (const Update& u : batch) {
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
    });
  }
}

}  // namespace detail
}  // namespace fbfs::core
