// The top-down scatter phase of core::run's rounds.
//
// Each round streams the input edges of every partition with an active
// source, builds the update each active-source edge carries, and
// shuffles it in place into the update file of the partition owning the
// target. The pieces, in pipeline order: the update fan-out (P open
// writers on the updates device); the stay-stream trim sink that sees
// every scanned edge; the update sources (state-loading or state-free);
// the per-worker staging buffers with the sieve; and the partition
// scans, serial or chunked over a pool, whose ordered hand-off keeps
// update and stay files byte-identical at every thread count. The
// bottom-up scan lives in pull.hpp; the passes over vertex state
// (init, gather, collect) live in vertex_state.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "storage/async_writer.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::core {

/// Partition p's update file on the updates device (rounds overwrite it
/// in place).
std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p);

namespace detail {

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

/// scatter_partition's edge observer: counts dead edges and feeds the
/// partition's ONE staged stay stream with survivors. A run that does
/// not trim leaves `counting` off, so observe() returns at once.
/// ChunkState carries what one chunk accumulates; flush() is only ever
/// called in input order — serially, or inside the parallel scatter's
/// ordered hand-off, whose gate mutex sequences the calls — so the
/// plain (non-atomic) members are race-free and the stay file receives
/// survivors in scan order at every thread count.
struct StayTrimSink {
  struct ChunkState {
    std::vector<graph::Edge> survivors;
    std::uint64_t dead = 0;
  };

  bool counting = false;    // trim-capable run: count dead edges
  bool collecting = false;  // trimming this scan: stage survivors
  /// Non-raw stay codec: survivors accumulate in `staged` (in scan
  /// order, flush() being input-ordered) and the engine encodes +
  /// appends the whole stream at finish time, instead of streaming
  /// chunks through the async writer as they retire.
  bool buffered = false;
  /// Masked programs: deadness is saturation alone (`retired` points at
  /// the tracker's saturated set). An active-but-unsaturated source
  /// must SURVIVE — a later query can put it back in the frontier —
  /// where the single-query rule would kill it.
  bool masked = false;
  const AtomicBitmap* retired = nullptr;
  io::AsyncWriter* writer = nullptr;
  io::AsyncWriter::StreamId id = 0;
  bool alive = false;
  std::uint64_t dead_total = 0;
  std::vector<graph::Edge> staged;

  ChunkState make_chunk_state() const { return {}; }

  void observe(const graph::Edge& e, bool src_active,
               ChunkState& chunk) const {
    if (!counting) return;
    const bool dead =
        masked ? retired->test(e.src) : (src_active || retired->test(e.src));
    if (dead) {
      ++chunk.dead;
    } else if (collecting) {
      chunk.survivors.push_back(e);
    }
  }

  void flush(ChunkState& chunk) {
    dead_total += chunk.dead;
    chunk.dead = 0;
    if (chunk.survivors.empty()) return;
    if (buffered) {
      staged.insert(staged.end(), chunk.survivors.begin(),
                    chunk.survivors.end());
    } else if (alive &&
               !writer->append_raw(
                   id, chunk.survivors.data(),
                   chunk.survivors.size() * sizeof(graph::Edge))) {
      alive = false;  // stream cancelled/failed under us
    }
    chunk.survivors.clear();
  }
};

/// How a top-down scan builds the update an active source's out-edge
/// carries. StateScatter is the general path: program.scatter over the
/// scanned partition's loaded states. RoundScatter is the state-free
/// path for PullCapable and MaskedProgram programs, whose
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
  template <typename Source>
  void process(std::span<const graph::Edge> batch, const Source& source,
               const AtomicBitmap& active, StayTrimSink& trim,
               StayTrimSink::ChunkState& chunk) {
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
/// single-threaded engine's exact behaviour. Parallel: the stream is
/// cut into fixed-size record chunks fanned over the pool; each chunk
/// task re-reads its own slice through a plain positional reader,
/// stages updates in per-destination-partition buffers, then retires
/// through an OrderedGate in chunk order. Because every update file
/// only sees its own updates, in scan order, and survivors append in
/// scan order too, update files and stay files are byte-identical at
/// every thread count.
template <graph::GraphProgram P, typename Source>
ScatterResult scatter_partition(
    const ExecContext& exec, io::Device& input_dev,
    const std::string& input_name, std::uint64_t base_offset,
    std::uint64_t num_records, const graph::PartitionLayout& layout,
    const Source& source, const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, StayTrimSink& trim,
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

/// scatter_partition over an in-memory edge span — the path for stay
/// files whose codec format is not raw (the whole file decodes up
/// front; a compressed stream has no per-chunk byte offsets to slice).
/// Windowing, ordering, and the sieve all match scatter_partition
/// exactly: serial slices and parallel chunks are both
/// `reader.buffer_bytes / sizeof(Edge)` records, and parallel chunks
/// retire through the same ordered hand-off.
template <graph::GraphProgram P, typename Source>
ScatterResult scatter_span(
    const ExecContext& exec, std::span<const graph::Edge> edges,
    const graph::PartitionLayout& layout, const Source& source,
    const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, bool sieve_updates,
    UpdateFanout<typename P::Update>& fanout, StayTrimSink& trim,
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

}  // namespace detail
}  // namespace fbfs::core
