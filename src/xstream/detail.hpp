// Shared building blocks of the streaming engines.
//
// xstream::run (the untrimmed X-Stream baseline) and core::run (the
// FastBFS trimming engine) execute the same synchronous rounds over the
// same on-device layout: per-partition state files, per-partition
// update streams shuffled in place, a final id-order state collection.
// Everything the two loops share verbatim — the init pass, the update
// fan-out, the gather (+ apply) phase, record stream helpers, file
// naming, per-round stats — lives here, so the engines differ only in
// their scatter loop (core adds the stay stream; engine headers say
// "change both or neither" about the round semantics, and sharing the
// code is how that stays true).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "metrics/iteration_stats.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"
#include "storage/stream.hpp"

namespace fbfs::xstream {

/// Per-round stats are the hoisted metrics records now (one struct for
/// every engine; src/metrics/iteration_stats.hpp). The aliases keep the
/// engines' historical spelling — xstream::IterationStats predates the
/// metrics layer and the tests/benches use it.
using RoleIo = metrics::RoleIo;
using IterationStats = metrics::IterationStats;

/// On-device file names (rounds overwrite in place).
std::string state_file_name(const graph::PartitionedGraph& pg,
                            std::uint32_t p);
std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p);

namespace detail {

void log_iteration(const char* program, const IterationStats& stats);

/// Engine-written record files (states, updates, stays) all carry the
/// update-codec header now (storage/codec.hpp), so reads and writes of
/// whole files go through the codec layer; the partitioner's edge files
/// predate the engines and stay headerless.
template <typename T>
std::vector<T> read_records(io::Device& device, const std::string& name,
                            const io::ReaderOptions& opts,
                            std::uint64_t expected) {
  return io::codec::read_all<T>(device, name, opts, expected);
}

template <typename T>
void write_records(io::Device& device, const std::string& name,
                   std::span<const T> records, std::size_t buffer_bytes) {
  io::codec::CodecWriter<T> writer(device, name, buffer_bytes);
  writer.append_batch(records);
  writer.close();
}

/// State-observer hook of init_partition_states / gather_partitions:
/// the default observes nothing and costs nothing (the hook is guarded
/// by `if constexpr` on the observer type, so non-masked instantiations
/// compile exactly as before).
struct NoStateObserver {};

/// Engine-side mirror of a masked program's per-vertex masks
/// (graph::MaskedProgram — MultiBfs). The engines keep vertex State on
/// device between phases, but trimming, bottom-up claiming, and the
/// direction model need O(1) access to every vertex's seen/frontier
/// mask each round; the tracker shadows them in flat arrays, refreshed
/// by the observer hook whenever a partition's states are (re)written.
/// Observed partitions cover disjoint vertex ranges, so concurrent
/// observe_range calls (the parallel init pass) never touch the same
/// slot; `saturated` is the trim/claim bitmap — a vertex every query
/// has seen can never gather anything new, its out-edges are dead and
/// bottom-up rounds skip its in-edge runs. Saturation is monotone, so
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

/// The init pass: one scan per partition builds local out-degrees off
/// the partition's own edge file, runs program.init over its vertex
/// range, writes its state file, and marks the initially-active
/// vertices in `active`. Partitions are independent (own files, atomic
/// bitmap), so with a pool they run concurrently, one task each.
/// Masked programs additionally get the initially-active vertices'
/// arrival records appended to `arrivals` (RunResult::arrivals) in id
/// order, and `observer` sees each partition's states once they are
/// final.
template <graph::GraphProgram P, typename Observer = NoStateObserver>
void init_partition_states(const graph::PartitionedGraph& pg,
                           const io::StoragePlan& plan,
                           const io::ReaderOptions& reader,
                           std::size_t write_buffer_bytes, const P& program,
                           AtomicBitmap& active, const ExecContext& exec = {},
                           std::vector<typename P::Update>* arrivals = nullptr,
                           Observer* observer = nullptr) {
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
    std::vector<std::uint32_t> degrees(layout.size(p), 0);
    auto edges = io::open_record_reader<graph::Edge>(
        plan.edges(), pg.partition_file(p), reader);
    for (auto batch = edges->next_batch(); !batch.empty();
         batch = edges->next_batch()) {
      for (const graph::Edge& e : batch) {
        FB_CHECK_MSG(layout.owner(e.src) == p,
                     "edge source " << e.src << " misfiled into partition "
                                    << p << " of " << pg.meta.name);
        ++degrees[e.src - begin];
      }
    }
    std::vector<State> states(layout.size(p));
    for (std::uint64_t i = 0; i < states.size(); ++i) {
      const graph::VertexId v = begin + static_cast<graph::VertexId>(i);
      bool is_active = false;
      program.init(v, degrees[i], states[i], is_active);
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
    if constexpr (!std::is_same_v<Observer, NoStateObserver>) {
      if (observer != nullptr) {
        observer->observe_range(begin, std::span<const State>(states));
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

/// P update writers held open across one scatter phase; writer q
/// receives every update addressed into partition q, in source-partition
/// order. Parallel scatter workers flush their staged per-destination
/// buffers through append_batch_locked, a short critical section per
/// writer. Each writer is a CodecWriter: raw policy streams exactly as
/// the old RecordWriter fan-out did, the other policies pick each
/// partition's cheapest on-disk format at close().
template <typename Update>
struct UpdateFanout {
  std::vector<std::unique_ptr<io::codec::CodecWriter<Update>>> writers;
  std::vector<std::unique_ptr<std::mutex>> locks;

  void append(std::uint32_t q, const Update& u) { writers[q]->append(u); }

  void append_batch(std::uint32_t q, std::span<const Update> batch) {
    writers[q]->append_batch(batch);
  }

  void append_batch_locked(std::uint32_t q, std::span<const Update> batch) {
    if (batch.empty()) return;
    std::lock_guard<std::mutex> guard(*locks[q]);
    writers[q]->append_batch(batch);
  }

  struct CloseStats {
    /// Updates a decoder will deliver — the gather-phase view the stop
    /// rule and pending counts key on (the bitmap format collapses
    /// byte-identical duplicates, so this can be below the staged
    /// count; nonzero iff anything was staged either way).
    std::uint64_t updates = 0;
    /// Bytes written (headers included), bucketed by chosen format.
    std::array<std::uint64_t, io::codec::kNumFormats> file_bytes{};
  };

  /// Closes all writers (encoding the non-raw ones) and records each
  /// partition's pending update count.
  CloseStats close(std::vector<std::uint64_t>& pending_updates) {
    CloseStats out;
    for (std::uint32_t q = 0; q < writers.size(); ++q) {
      const auto r = writers[q]->close();
      pending_updates[q] = r.records;
      out.updates += r.records;
      out.file_bytes[static_cast<std::size_t>(r.format)] += r.file_bytes;
    }
    return out;
  }
};

/// `allow_bitmap` is the per-program licence for the duplicate-
/// collapsing bitmap format — pass graph::kIdempotentGatherV<P>.
template <typename Update>
UpdateFanout<Update> open_update_fanout(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    std::size_t write_buffer_bytes,
    io::codec::Policy policy = io::codec::Policy::kRaw,
    bool allow_bitmap = false) {
  const std::uint32_t num_partitions = pg.layout.num_partitions();
  const std::size_t update_buffer = std::max<std::size_t>(
      sizeof(Update), write_buffer_bytes / num_partitions);
  UpdateFanout<Update> fanout;
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    io::codec::EncodeOptions opts;
    opts.policy = policy;
    opts.allow_bitmap = allow_bitmap;
    opts.range_begin = pg.layout.begin(q);
    opts.range_end = pg.layout.end(q);
    fanout.writers.push_back(
        std::make_unique<io::codec::CodecWriter<Update>>(
            plan.updates(), update_file_name(pg, q), update_buffer, opts));
    fanout.locks.push_back(std::make_unique<std::mutex>());
  }
  return fanout;
}

/// Edge-observer hook of scatter_partition. xstream passes this no-op;
/// core's StayTrimSink counts dead edges and stages survivors for the
/// stay stream. ChunkState carries whatever the sink accumulates per
/// chunk; flush(ChunkState&) is only ever called in input order — from
/// the serial loop, or inside the parallel scatter's ordered hand-off —
/// so a sink may keep plain (non-atomic) members touched only there.
struct NullTrimSink {
  struct ChunkState {};
  ChunkState make_chunk_state() const { return {}; }
  void observe(const graph::Edge&, bool /*src_active*/, ChunkState&) const {}
  void flush(ChunkState&) {}
};

/// How a top-down scan builds the update an active source's out-edge
/// carries. StateScatter is the general path: program.scatter over the
/// scanned partition's loaded states. RoundScatter is the state-free
/// path for PullCapable and MaskedProgram programs (core::run), whose
/// contracts make pull(e, round) / pull_masked(e, round,
/// frontier_mask(src)) byte-identical to scatter(e, state) for an
/// active source — so the partition's state file never needs loading.
template <graph::GraphProgram P>
struct StateScatter {
  const P& program;
  std::span<const typename P::State> states;  // the partition's, in id order
  graph::VertexId part_begin = 0;

  bool operator()(const graph::Edge& e, typename P::Update& out) const {
    return program.scatter(e, states[e.src - part_begin], out);
  }
};

template <graph::GraphProgram P>
  requires(graph::PullCapable<P> || graph::MaskedProgram<P>)
struct RoundScatter {
  const P& program;
  std::uint32_t round = 0;
  /// Masked programs: every vertex's frontier mask (MaskStateTracker).
  std::span<const std::uint64_t> frontier_masks;

  bool operator()(const graph::Edge& e, typename P::Update& out) const {
    if constexpr (graph::MaskedProgram<P>) {
      return program.pull_masked(e, round, frontier_masks[e.src], out);
    } else {
      return program.pull(e, round, out);
    }
  }
};

/// One scatter pass's counters. `emitted` counts updates program.scatter
/// produced; `sieved` counts the ones that never reached the shuffle
/// writers (scatter declined, or the staging sieve collapsed them onto
/// an earlier same-destination update). Records staged = emitted minus
/// the sieve's share of sieved.
struct ScatterResult {
  std::uint64_t scanned = 0;
  std::uint64_t emitted = 0;
  std::uint64_t sieved = 0;
  /// Edges that actually probed program state: a top-down scan probes
  /// every edge it scans (probed == scanned); a bottom-up pull skips
  /// the rest of a vertex's in-edge run once the vertex is claimed, so
  /// probed is the short-circuit's savings made visible.
  std::uint64_t probed = 0;
  /// Edges never READ at all: bottom-up blocks whose whole destination
  /// range was already claimed are skipped without touching their bytes
  /// (the frontier-density-aware reader). scanned + skipped covers the
  /// input file.
  std::uint64_t skipped = 0;
};

/// One worker's staging state for a scatter window: per-destination-
/// partition update buckets, plus (when sieving) a dst -> bucket-slot
/// map over the CURRENT window. A window is one staging-buffer
/// lifetime — a serial reader batch or a parallel chunk, both exactly
/// `reader.buffer_bytes / sizeof(Edge)` records — so the sieve sees
/// identical windows at every thread count and the update files stay
/// byte-identical. Within a window the first update to a destination
/// claims the slot; a later non-dominated update is folded into the
/// champion IN that slot via program.sieve_merge (file position = first
/// sighting, value = the fold: min-folds replace, mask folds OR), and
/// either way the later record is dropped. Exact only for
/// SieveCapable programs — the sieve flag is dead for the rest.
template <graph::GraphProgram P>
struct ScatterStage {
  using Update = typename P::Update;

  const P& program;
  const graph::PartitionLayout& layout;
  bool sieve;
  std::vector<std::vector<Update>> buckets;
  std::unordered_map<graph::VertexId, std::uint32_t> window;
  std::uint64_t emitted = 0;
  std::uint64_t sieved = 0;

  ScatterStage(const P& program, const graph::PartitionLayout& layout,
               bool sieve)
      : program(program),
        layout(layout),
        sieve(sieve),
        buckets(layout.num_partitions()) {}

  void stage(const Update& u) {
    ++emitted;
    std::vector<Update>& bucket = buckets[layout.owner(u.dst)];
    if constexpr (graph::SieveCapable<P>) {
      if (sieve) {
        const auto [it, inserted] = window.try_emplace(
            graph::VertexId(u.dst), static_cast<std::uint32_t>(bucket.size()));
        if (!inserted) {
          Update& champion = bucket[it->second];
          if (!program.dominates(champion, u)) program.sieve_merge(champion, u);
          ++sieved;
          return;
        }
      }
    }
    bucket.push_back(u);
  }

  /// Scatter `batch` into the buckets (each active-source edge's update
  /// built by `source`, a StateScatter or RoundScatter) and show every
  /// edge to `trim`.
  template <typename Source, typename TrimSink>
  void process(std::span<const graph::Edge> batch, const Source& source,
               const AtomicBitmap& active, TrimSink& trim,
               typename TrimSink::ChunkState& chunk) {
    for (const graph::Edge& e : batch) {
      const bool src_active = P::kScatterAllVertices || active.test(e.src);
      if (src_active) {
        Update u;
        if (source(e, u)) {
          stage(u);
        } else {
          ++sieved;
        }
      }
      trim.observe(e, src_active, chunk);
    }
  }

  /// Serial window retirement: append + clear, ready for the next batch.
  template <typename Fanout>
  void flush_serial(Fanout& fanout) {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      if (!buckets[q].empty()) {
        fanout.append_batch(q, buckets[q]);
        buckets[q].clear();
      }
    }
    window.clear();
  }

  /// Parallel retirement: the stage is per-chunk, appended once under
  /// the ordered hand-off and then discarded.
  template <typename Fanout>
  void flush_locked(Fanout& fanout) {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      fanout.append_batch_locked(q, buckets[q]);
    }
  }
};

/// One partition's scatter: scans `num_records` edges from
/// `input_name` starting at byte `base_offset` (0 for headerless edge
/// partition files, codec::kHeaderBytes for raw codec streams), builds
/// the update of every active-source edge (or every edge, for
/// kScatterAllVertices programs) through `source` — StateScatter or
/// RoundScatter, see above — routes emitted updates into the
/// fan-out — sieving dominated duplicates at the staging buffers when
/// `sieve_updates` and the program allows — and shows every edge + its
/// activity to `trim`.
///
/// With a collector, the fan-out flushes are timed as shuffle-flush
/// latencies and the scan feeds the live op counters. The counting
/// itself is plain local increments either way; only the flush to the
/// LiveOps atomics is gated on the collector, so a null collector costs
/// one pointer test per batch/chunk — no clock reads, no atomics.
///
/// Serial (no pool): one streaming reader honouring `reader` (including
/// prefetch mode), retiring each delivered batch immediately — the
/// single-threaded engines' exact behaviour. Parallel: the stream is
/// cut into fixed-size record chunks fanned over the pool; each chunk
/// task re-reads its own slice through a plain positional reader,
/// stages updates in per-destination-partition buffers, then retires
/// through an OrderedGate in chunk order. Because every update file
/// only sees its own updates, in scan order, and survivors append in
/// scan order too, update files and stay files are byte-identical at
/// every thread count.
template <graph::GraphProgram P, typename Source, typename TrimSink>
ScatterResult scatter_partition(
    const ExecContext& exec, io::Device& input_dev,
    const std::string& input_name, std::uint64_t base_offset,
    std::uint64_t num_records, const graph::PartitionLayout& layout,
    const Source& source, const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, TrimSink& trim,
    metrics::Collector* collector = nullptr) {
  if (!exec.parallel()) {
    io::ReaderOptions opts = reader;
    opts.offset = base_offset;
    // Prefetch mode sizes its ring to a real device's queue depth (the
    // fetcher submits all free slots as one ring batch); on the
    // modelled device this keeps the historical double-buffering.
    opts.match_device(input_dev);
    auto edges =
        io::open_record_reader<graph::Edge>(input_dev, input_name, opts);
    ScatterStage<P> stage(program, layout, sieve_updates);
    auto chunk = trim.make_chunk_state();
    std::uint64_t scanned = 0;
    for (auto batch = edges->next_batch(); !batch.empty();
         batch = edges->next_batch()) {
      scanned += batch.size();
      stage.process(batch, source, active, trim, chunk);
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_serial(fanout);
        trim.flush(chunk);
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_edges_probed(scanned);
      collector->live().add_updates(stage.emitted, stage.sieved);
    }
    return {scanned, stage.emitted, stage.sieved, scanned};
  }

  const std::uint64_t chunk_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));
  const std::uint64_t num_chunks =
      (num_records + chunk_records - 1) / chunk_records;
  // On a real-backend device a task owns a run of consecutive chunks
  // and submits their positional reads as ONE ring batch (queue_depth
  // reads in flight per submission). The modelled timeline is serial,
  // so groups stay size 1 there and the per-chunk read/charge sequence
  // is exactly the historical one.
  const std::uint64_t group_chunks =
      input_dev.backend_kind() == io::BackendKind::kReal
          ? std::max<std::uint64_t>(1, input_dev.backend_options().queue_depth)
          : 1;
  const std::uint64_t num_groups =
      num_chunks == 0 ? 0 : (num_chunks + group_chunks - 1) / group_chunks;
  OrderedGate gate;
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> sieved{0};
  std::vector<std::future<void>> groups;
  groups.reserve(num_groups);
  for (std::uint64_t g = 0; g < num_groups; ++g) {
    groups.push_back(exec.pool->submit([&, g] {
      const std::uint64_t first_chunk = g * group_chunks;
      const std::uint64_t n_chunks =
          std::min(group_chunks, num_chunks - first_chunk);
      // Completes tickets `from` .. end-of-group so the ordered
      // hand-off chain stays alive when this task throws; join_all
      // surfaces the failure.
      const auto abandon_from = [&](std::uint64_t from) {
        for (std::uint64_t c = from; c < first_chunk + n_chunks; ++c) {
          gate.wait_turn(c);
          gate.complete(c);
        }
      };
      // Each chunk is still one positional read on its own File (the
      // modelled head/seek accounting cannot tell batched submission
      // from the old per-chunk readers); the group's reads go down as a
      // single read_batch.
      std::vector<std::unique_ptr<io::File>> files;
      std::vector<std::vector<graph::Edge>> buffers(n_chunks);
      try {
        std::vector<io::ReadRequest> requests;
        files.reserve(n_chunks);
        requests.reserve(n_chunks);
        for (std::uint64_t k = 0; k < n_chunks; ++k) {
          const std::uint64_t first = (first_chunk + k) * chunk_records;
          const std::uint64_t count =
              std::min(chunk_records, num_records - first);
          buffers[k].resize(static_cast<std::size_t>(count));
          files.push_back(input_dev.open(input_name));
          requests.push_back(
              {files.back().get(),
               base_offset + first * sizeof(graph::Edge), buffers[k].data(),
               static_cast<std::size_t>(count * sizeof(graph::Edge)), 0});
        }
        input_dev.read_batch(requests);
        for (std::uint64_t k = 0; k < n_chunks; ++k) {
          FB_CHECK_MSG(requests[k].got == requests[k].bytes,
                       input_name << " ends inside chunk " << first_chunk + k
                                  << " (" << (requests[k].bytes -
                                              requests[k].got)
                                  << " bytes short)");
        }
      } catch (...) {
        abandon_from(first_chunk);
        throw;
      }
      for (std::uint64_t k = 0; k < n_chunks; ++k) {
        const std::uint64_t c = first_chunk + k;
        const std::uint64_t count = buffers[k].size();
        ScatterStage<P> stage(program, layout, sieve_updates);
        auto chunk = trim.make_chunk_state();
        try {
          stage.process(std::span<const graph::Edge>(buffers[k]), source,
                        active, trim, chunk);
        } catch (...) {
          abandon_from(c);
          throw;
        }
        gate.wait_turn(c);
        try {
          metrics::ScopedPhase flush_timer(collector,
                                           metrics::Phase::kShuffleFlush);
          stage.flush_locked(fanout);
          trim.flush(chunk);
        } catch (...) {
          gate.complete(c);
          abandon_from(c + 1);
          throw;
        }
        gate.complete(c);
        scanned.fetch_add(count, std::memory_order_relaxed);
        emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
        sieved.fetch_add(stage.sieved, std::memory_order_relaxed);
        if (collector != nullptr) {
          collector->live().add_edges_scanned(count);
          collector->live().add_edges_probed(count);
          collector->live().add_updates(stage.emitted, stage.sieved);
        }
      }
    }));
  }
  join_all(groups);
  const std::uint64_t total = scanned.load(std::memory_order_relaxed);
  return {total, emitted.load(std::memory_order_relaxed),
          sieved.load(std::memory_order_relaxed), total};
}

/// scatter_partition over an in-memory edge span — core's path for stay
/// files whose codec format is not raw (the whole file decodes up
/// front; a compressed stream has no per-chunk byte offsets to slice).
/// Windowing, ordering, and the sieve all match scatter_partition
/// exactly: serial slices and parallel chunks are both
/// `reader.buffer_bytes / sizeof(Edge)` records, and parallel chunks
/// retire through the same ordered hand-off.
template <graph::GraphProgram P, typename Source, typename TrimSink>
ScatterResult scatter_span(
    const ExecContext& exec, std::span<const graph::Edge> edges,
    const graph::PartitionLayout& layout, const Source& source,
    const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, TrimSink& trim,
    metrics::Collector* collector = nullptr) {
  const std::uint64_t num_records = edges.size();
  const std::uint64_t chunk_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));

  if (!exec.parallel()) {
    ScatterStage<P> stage(program, layout, sieve_updates);
    auto chunk = trim.make_chunk_state();
    for (std::uint64_t first = 0; first < num_records;
         first += chunk_records) {
      const std::uint64_t count =
          std::min(chunk_records, num_records - first);
      stage.process(edges.subspan(first, count), source, active, trim, chunk);
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_serial(fanout);
        trim.flush(chunk);
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(num_records);
      collector->live().add_edges_probed(num_records);
      collector->live().add_updates(stage.emitted, stage.sieved);
    }
    return {num_records, stage.emitted, stage.sieved, num_records};
  }

  const std::uint64_t num_chunks =
      num_records == 0 ? 0 : (num_records + chunk_records - 1) / chunk_records;
  OrderedGate gate;
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> sieved{0};
  std::vector<std::future<void>> chunks;
  chunks.reserve(num_chunks);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    chunks.push_back(exec.pool->submit([&, c] {
      const std::uint64_t first = c * chunk_records;
      const std::uint64_t count =
          std::min(chunk_records, num_records - first);
      ScatterStage<P> stage(program, layout, sieve_updates);
      auto chunk = trim.make_chunk_state();
      try {
        stage.process(edges.subspan(first, count), source, active, trim,
                      chunk);
      } catch (...) {
        gate.wait_turn(c);
        gate.complete(c);
        throw;
      }
      gate.wait_turn(c);
      try {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        stage.flush_locked(fanout);
        trim.flush(chunk);
      } catch (...) {
        gate.complete(c);
        throw;
      }
      gate.complete(c);
      emitted.fetch_add(stage.emitted, std::memory_order_relaxed);
      sieved.fetch_add(stage.sieved, std::memory_order_relaxed);
      if (collector != nullptr) {
        collector->live().add_edges_scanned(count);
        collector->live().add_edges_probed(count);
        collector->live().add_updates(stage.emitted, stage.sieved);
      }
    }));
  }
  join_all(chunks);
  return {num_records, emitted.load(std::memory_order_relaxed),
          sieved.load(std::memory_order_relaxed), num_records};
}

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

/// Gather (+ apply): partitions with no pending updates keep their
/// state file untouched unless the program applies every round.
///
/// With a pool, each partition's vertex range is split into contiguous
/// per-worker subranges: every worker scans the full (in-memory) update
/// batch and folds only the updates addressed into its own subrange, so
/// no state cell is ever touched by two workers and each cell still
/// sees its updates in file order. The fold result is bit-identical to
/// the serial loop for any gather, ordered or not — partitioning by
/// destination preserves per-cell order — though the engine contract
/// (program.hpp) additionally requires gathers to be order-free exact
/// reductions. Apply splits over the same subranges.
///
/// Masked programs append the arrival record of every vertex this
/// gather activated to `arrivals` (partitions in order, ids in order
/// within each — activations only ever land in the gathered partition's
/// own range), and `observer` (MaskStateTracker) sees each touched
/// partition's states after gather + apply; skipped partitions keep
/// their previous (still accurate) mirror entries.
template <graph::GraphProgram P, typename Observer = NoStateObserver>
void gather_partitions(const graph::PartitionedGraph& pg,
                       const io::StoragePlan& plan,
                       const io::ReaderOptions& reader,
                       std::size_t write_buffer_bytes, const P& program,
                       const std::vector<std::uint64_t>& pending_updates,
                       AtomicBitmap& next_active, const ExecContext& exec = {},
                       metrics::Collector* collector = nullptr,
                       std::vector<typename P::Update>* arrivals = nullptr,
                       Observer* observer = nullptr) {
  using State = typename P::State;
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  for (std::uint32_t q = 0; q < layout.num_partitions(); ++q) {
    if (pending_updates[q] == 0 && !P::kNeedsApply) continue;
    const graph::VertexId begin = layout.begin(q);
    std::vector<State> states = read_records<State>(
        plan.state(), state_file_name(pg, q), reader, layout.size(q));
    if (pending_updates[q] > 0) {
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
        const std::vector<Update> updates = read_records<Update>(
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
    if constexpr (P::kNeedsApply) {
      metrics::ScopedPhase apply_timer(collector, metrics::Phase::kApply);
      const auto apply_range = [&](const IndexRange& r) {
        for (std::uint64_t i = r.begin; i < r.end; ++i) {
          program.apply(begin + static_cast<graph::VertexId>(i), states[i]);
        }
      };
      if (!exec.parallel()) {
        apply_range({0, states.size()});
      } else {
        parallel_for_ranges(*exec.pool, states.size(), exec.threads(),
                            apply_range);
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
    }
    if constexpr (!std::is_same_v<Observer, NoStateObserver>) {
      if (observer != nullptr) {
        observer->observe_range(begin, std::span<const State>(states));
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
    const std::vector<State> states = read_records<State>(
        plan.state(), state_file_name(pg, p), reader, pg.layout.size(p));
    out.insert(out.end(), states.begin(), states.end());
  }
  return out;
}

/// Removes the run's state and update files from their role devices.
void remove_run_files(const graph::PartitionedGraph& pg,
                      const io::StoragePlan& plan);

}  // namespace detail
}  // namespace fbfs::xstream
