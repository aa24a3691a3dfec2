// The streaming engine: FastBFS (paper §II-C) as X-Stream's synchronous
// scatter/gather rounds plus the paper's mechanisms —
//
//   edge trimming       during a partition's scatter scan, edges whose
//                       source is in the frontier emit their update and
//                       die (BFS levels are set once, so a scattered
//                       source never needs its out-edges again); the
//                       survivors are encoded under the stay codec
//                       when the scan ends and handed to the
//                       AsyncWriter whole (write_staged), staged onto
//                       the plan's stay device as the partition's
//                       next-iteration input;
//   latency hiding      the stay write proceeds on the writer thread
//                       while the round moves on; only the NEXT scatter
//                       of the same partition needs the file, so
//                       wait_complete(id, grace_timeout) gates the
//                       swap there — on timeout the stream is
//                       cancelled and the previous input file is
//                       reused (write_staged's .wip-never-clobbers
//                       contract makes the fallback safe);
//   trim triggers       per partition and per round, trimming starts
//                       only when it plausibly pays: round >=
//                       trim_start_round, frontier fraction >=
//                       trim_min_frontier_fraction, and the dead-edge
//                       fraction observed in the partition's previous
//                       scan >= trim_min_dead_fraction;
//   selective scheduling partitions whose vertex range received no
//                       gather update are skipped outright
//                       (AtomicBitmap::any_in_range).
//
// The X-Stream baseline is this loop with trimming off and every round
// top-down: engine::run(Kind::kXstream, ...) is that preset, not a
// second engine.
//
// The graph lives on disk as P partition edge files (partitioner.hpp:
// partition p owns the vertex range [begin(p), end(p)) and holds the
// out-edges of its sources); vertex state lives in one State file per
// partition, or in memory when Options::memory_budget_bytes holds it
// (vertex_state.hpp's StateStore). Each round scatters every partition
// with an active source (scatter.hpp, or pull.hpp bottom-up), then
// gathers each partition's updates into the states — from its update
// file, or from its encoded blob when what is left of the budget kept
// that in memory. Devices come from a StoragePlan: edges / state /
// updates / stay are separate roles, so the paper's dual-disk placement
// is one plan away.
//
// Every program has set-once levels (graph::GraphProgram requires a
// state-free hook; program.hpp), so trimming and bottom-up rounds run
// exactly as the options say. Deadness is engine-level and shares one
// set with bottom-up claiming: `visited` holds every frontier so far,
// this round's included, and an edge survives iff its source is not in
// it — no peeking into program State.
//
// Masked programs (graph::MaskedProgram — MultiBfs, the batched
// multi-source traversal) use the MaskStateTracker's SATURATION set as
// that one set instead: a vertex every query has seen can never gather
// anything new, so once it scatters the frontier it is carrying, its
// out-edges are dead (trim deadness = saturated, NOT has-been-active —
// an unsaturated vertex re-enters the frontier when a later query
// reaches it) and bottom-up rounds treat it as claimed.
// The direction model additionally sees the round's aggregate frontier
// mask popcount, so the beta gate reads per-query density.
//
// State-free scatter: neither direction ever loads a state file to
// scatter. The pull hooks rebuild each active source's update from the
// round number (plus the tracker's frontier mask), byte-identical to
// scatter by their contracts (program.hpp), so the state device is read
// only by gather and the final collect. Init reads no edge file: it
// only writes the initial states. Every scanned edge's partition is
// CHECKed by the scan itself (its source top-down, its destination
// bottom-up).
//
// Round accounting and stop rules are EXACTLY inmem::run's (change
// both or neither).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/direction.hpp"
#include "core/pull.hpp"
#include "core/scatter.hpp"
#include "core/vertex_state.hpp"
#include "engine/types.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "metrics/device_usage.hpp"
#include "metrics/iteration_stats.hpp"
#include "storage/async_writer.hpp"
#include "storage/codec.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::core {

/// Partition p's trimmed input on the stay device. Staged writes land
/// on "<name>.wip" first, so the previous version survives cancellation.
std::string stay_file_name(const graph::PartitionedGraph& pg,
                           std::uint32_t p);

namespace detail {

void log_iteration(const char* program, const metrics::IterationStats& stats);
void log_trim_resolution(const char* program, std::uint32_t partition,
                         io::AsyncWriter::StreamState state);

/// Removes the run's state, update and stay files from their role
/// devices.
void remove_run_files(const graph::PartitionedGraph& pg,
                      const io::StoragePlan& plan);

/// After a grace-timeout cancel, the writer thread gets this long to
/// reach a terminal state (cancel is cooperative and never blocks on
/// the device, so this settles promptly; it exists so a commit that
/// raced the cancel is observed as the commit it is).
inline constexpr double kSettleTimeoutSeconds = 60.0;

/// One in-flight stay stream per partition: the trim started at some
/// round's scan, resolved at the partition's next scan (or end of run).
struct PendingTrim {
  io::AsyncWriter::StreamId id = 0;
  std::uint64_t survivors = 0;  // edges in the stream
  /// Format the stream was written in; the next scan dispatches on it
  /// (raw = positional scan past the header, else decode-then-scatter)
  /// without re-reading the header.
  io::codec::Format format = io::codec::Format::kRaw;
};

}  // namespace detail

template <graph::GraphProgram P>
engine::RunResult<P> run(const graph::PartitionedGraph& pg,
                         const io::StoragePlan& plan, const P& program,
                         const engine::Options& options = {}) {
  using Update = typename P::Update;
  const graph::PartitionLayout& layout = pg.layout;
  const std::uint32_t num_partitions = layout.num_partitions();
  const std::uint64_t n = layout.num_vertices();

  engine::RunResult<P> result;
  // Every device's counters at the call's start: the epilogue row gets
  // whatever I/O of the call no round's row holds.
  const metrics::RoleSnapshots io_at_start = plan.stats_snapshot();
  AtomicBitmap active(n);
  AtomicBitmap next_active(n);

  const unsigned num_threads = resolve_thread_count(options.num_threads);
  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);
  const ExecContext exec{pool ? &*pool : nullptr};

  // ---- masked-program state (batched multi-source traversal). The
  // tracker mirrors every vertex's seen/frontier mask into flat arrays
  // (refreshed by the init and gather passes) and owns the saturation
  // bitmap that replaces `visited` below.
  constexpr bool masked = graph::MaskedProgram<P>;
  [[maybe_unused]] std::uint32_t batch_width = 0;
  std::optional<detail::MaskStateTracker<P>> tracker;
  if constexpr (masked) {
    batch_width = static_cast<std::uint32_t>(std::popcount(program.full_mask()));
    tracker.emplace(program, n);
  }

  // ---- the memory budget, spent in a fixed order. The vertex states
  // come first, all of them or none: when n × sizeof(State) fits, they
  // live in one vector and no state file is created. What is left holds
  // each round's encoded update blobs, each one kept in memory if it
  // fits (UpdateFanout::close) and decoded from there by gather. Stays,
  // edges and the transposed view always stream: they are the
  // out-of-core input.
  const std::uint64_t state_bytes = n * sizeof(typename P::State);
  const bool states_resident = state_bytes <= options.memory_budget_bytes;
  const std::uint64_t blob_budget =
      options.memory_budget_bytes - (states_resident ? state_bytes : 0);
  detail::StateStore<P> store(pg, plan, options.reader,
                              options.write_buffer_bytes, states_resident);
  std::vector<std::vector<std::byte>> resident_updates(num_partitions);

  detail::init_partition_states(pg, store, program, active, exec,
                                &result.arrivals,
                                tracker ? &*tracker : nullptr);

  // ---- trimming state. Only runs with trimming on pay for any of this;
  // for the rest the loop below is the plain X-Stream scatter/gather.
  std::optional<io::AsyncWriter> writer;
  if (options.trim) writer.emplace();
  std::vector<bool> input_on_stay(num_partitions, false);
  // Codec format of partition p's committed stay file (meaningful only
  // when input_on_stay[p]); raw scans positionally past the header, any
  // other format decodes up front and is scanned in memory.
  std::vector<io::codec::Format> stay_format(num_partitions,
                                             io::codec::Format::kRaw);
  std::vector<std::uint64_t> input_edges(pg.edges_per_partition);
  // Dead edges seen in the latest scan of the partition's CURRENT input
  // (replaced per scan — deadness is monotone, so a stale count only
  // undercounts, as does a scan that skipped blocks; reset to 0 when the
  // input swaps to a fresh stay file).
  std::vector<std::uint64_t> dead_seen(num_partitions, 0);
  std::vector<std::optional<detail::PendingTrim>> pending(num_partitions);

  // ---- direction state. Top-down runs pay for none of this. The
  // transposed (in-edge) view builds once up front — or loads from its
  // cache — on the plan's edge device.
  graph::TransposedView transposed;
  if (options.direction != engine::Direction::kTopDown) {
    transposed = graph::build_transposed_view(plan, pg);
  }

  // ---- the dead set, one for trimming and bottom-up alike: `visited`
  // (every frontier ever activated, this round's included) for
  // single-query programs, the tracker's saturation bitmap for masked
  // ones. Either way it holds exactly the vertices whose out-edges are
  // dead at scatter time and that a bottom-up probe can never gain
  // anything for, which is also the cost model's `unvisited` term. Null
  // when neither trimming nor a bottom-up direction needs it.
  std::optional<AtomicBitmap> visited;
  if (!masked &&
      (options.trim || options.direction != engine::Direction::kTopDown)) {
    visited.emplace(n);
    visited->or_with(active);
  }
  const AtomicBitmap* const claimed = [&]() -> const AtomicBitmap* {
    if constexpr (masked) return &tracker->saturated;
    return visited ? &*visited : nullptr;
  }();

  metrics::Collector* const collector = options.collector;

  // The staging sieve's windows (scatter.hpp), held for the whole run:
  // one per concurrently live top-down scan group, allocated on first
  // need. Bottom-up pulls take none.
  std::optional<detail::SieveWindows> sieve_windows;
  if (options.sieve_updates) sieve_windows.emplace(n);

  // Resolves partition p's pending stay stream: bounded grace wait,
  // cancel on timeout, settle, then swap the input on commit or fall
  // back to the previous input otherwise. `stats` is the current
  // round's row, or the run's epilogue row at end-of-run — every
  // resolution lands in exactly one row, so the run totals always equal
  // the rows' sum (CHECKed below).
  const auto resolve_pending = [&](std::uint32_t p,
                                   metrics::IterationStats* stats) {
    if (!pending[p]) return;
    metrics::ScopedPhase resolve_timer(collector,
                                       metrics::Phase::kTrimResolve);
    const io::AsyncWriter::StreamId id = pending[p]->id;
    bool committed = writer->wait_complete(id, options.grace_timeout_seconds);
    if (!committed) {
      writer->cancel(id);
      // The commit rename may have raced the cancel; either terminal
      // state is correct (a committed stay file is a valid input), so
      // just observe which one the writer reached.
      committed = writer->wait_complete(id, detail::kSettleTimeoutSeconds);
    }
    const io::AsyncWriter::StreamState state = writer->state(id);
    detail::log_trim_resolution(P::kName, p, state);
    if (committed) {
      input_on_stay[p] = true;
      stay_format[p] = pending[p]->format;
      input_edges[p] = pending[p]->survivors;
      dead_seen[p] = 0;
      ++result.trims_committed;
      if (stats != nullptr) ++stats->trims_committed;
    } else if (state == io::AsyncWriter::StreamState::failed) {
      ++result.trims_failed;
      if (stats != nullptr) ++stats->trims_failed;
    } else {
      ++result.trims_cancelled;
      if (stats != nullptr) ++stats->trims_cancelled;
    }
    writer->release(id);
    pending[p].reset();
  };

  // ---- rounds. Stop rules mirror inmem::run exactly.
  std::vector<std::uint64_t> pending_updates(num_partitions, 0);
  while (result.iterations < options.max_iterations) {
    Stopwatch round_clock;
    metrics::IterationStats stats;
    stats.iteration = result.iterations;
    const metrics::RoleSnapshots io_before = plan.stats_snapshot();
    const double frontier_fraction =
        static_cast<double>(active.count_set()) / static_cast<double>(n);

    // Masked programs: the round's aggregate mask shape — the direction
    // model's per-query densities, the batch columns in the stats row,
    // and the live per-query convergence counter (monotone: a query
    // with no frontier bit anywhere can never regain one).
    [[maybe_unused]] typename detail::MaskStateTracker<P>::RoundMasks
        round_masks;
    if constexpr (masked) {
      round_masks = tracker->round_masks(active);
      stats.frontier_mask_bits = round_masks.frontier_bits;
      stats.queries_active = static_cast<std::uint32_t>(
          std::popcount(round_masks.active_mask));
      if (collector != nullptr) {
        collector->live().set_queries_converged(batch_width -
                                                stats.queries_active);
      }
    }

    // Direction decision: model both modes' bytes from this round's
    // frontier and the partitions each mode would actually touch, then
    // decide (forced modes pass straight through). Both costs are
    // recorded in the round's stats either way, so an ablation can see
    // the margin the model acted on.
    engine::Direction mode = engine::Direction::kTopDown;
    if (options.direction != engine::Direction::kTopDown) {
      DirectionInputs din;
      din.num_vertices = n;
      din.total_edges = pg.meta.num_edges;
      din.frontier = active.count_set();
      din.unvisited = n - claimed->count_set();
      din.edge_bytes = sizeof(graph::Edge);
      din.update_bytes = sizeof(Update);
      if constexpr (masked) {
        din.frontier_bits = round_masks.frontier_bits;
        din.active_queries = stats.queries_active;
      }
      for (std::uint32_t p = 0; p < num_partitions; ++p) {
        if (active.any_in_range(layout.begin(p), layout.end(p))) {
          din.topdown_scan_edges += input_edges[p];
        }
        if (!claimed->all_in_range(layout.begin(p), layout.end(p))) {
          din.bottomup_scan_edges += transposed.in_edges_per_partition[p];
        }
      }
      DirectionCosts costs;
      mode = decide_direction(options.direction, din, kDirectionAlpha,
                              kDirectionBeta, &costs);
      stats.modelled_topdown_bytes = costs.topdown_bytes;
      stats.modelled_bottomup_bytes = costs.bottomup_bytes;
      stats.bottomup = mode == engine::Direction::kBottomUp;
    }

    // Scatter.
    {
      Stopwatch scatter_clock;
      auto fanout = detail::open_update_fanout<Update>(
          pg, plan, options.write_buffer_bytes, options.update_codec);
      // The state-free sources build every update from the round number
      // alone; masked programs add the tracker's flat mask arrays, and
      // single-query pulls get empty spans they never read.
      std::span<const std::uint64_t> frontier_masks;
      std::span<const std::uint64_t> seen_masks;
      if constexpr (masked) {
        frontier_masks = tracker->frontier;
        seen_masks = tracker->seen;
      }
      if (mode == engine::Direction::kBottomUp) {
        // Bottom-up: scan the transposed files of partitions that still
        // hold unclaimed vertices and let those vertices probe the
        // frontier. Pending trims of the FORWARD inputs stay pending
        // (nothing reads them this round, so their streams just get more
        // time), and no trim sink runs — the transposed view is never
        // trimmed.
        for (std::uint32_t q = 0; q < num_partitions; ++q) {
          if (claimed->all_in_range(layout.begin(q), layout.end(q))) {
            ++stats.partitions_skipped;
            if (collector != nullptr) {
              collector->live().add_partition_skipped();
            }
            continue;
          }
          ++stats.partitions_scattered;
          if (collector != nullptr) {
            collector->live().add_partition_scattered();
          }
          metrics::ScopedPhase scatter_timer(collector,
                                             metrics::Phase::kScatter);
          const detail::ScatterResult pulled = detail::pull_partition<P>(
              exec, plan.edges(), graph::transposed_file(pg, q),
              transposed.in_edges_per_partition[q],
              std::span<const graph::EdgeBlock>(transposed.blocks[q]),
              layout, q, active, *claimed, program, result.iterations,
              options.reader, frontier_masks, seen_masks, fanout, collector);
          FB_CHECK_MSG(
              pulled.scanned + pulled.skipped ==
                  transposed.in_edges_per_partition[q],
              "transposed partition " << q << " of " << pg.meta.name
                                      << " covered " << pulled.scanned
                                      << " + " << pulled.skipped
                                      << " edges, expected "
                                      << transposed.in_edges_per_partition[q]);
          stats.edges_scanned += pulled.scanned;
          stats.edges_probed += pulled.probed;
          stats.edge_bytes_skipped += pulled.skipped * sizeof(graph::Edge);
        }
      }
      // Top-down (the entire loop no-ops after a bottom-up pull above).
      for (std::uint32_t p = 0;
           mode != engine::Direction::kBottomUp && p < num_partitions; ++p) {
        if (!active.any_in_range(layout.begin(p), layout.end(p))) {
          // A pending trim of a skipped partition stays pending: the
          // stream gets more time, and nothing needs its file yet.
          ++stats.partitions_skipped;
          if (collector != nullptr) collector->live().add_partition_skipped();
          continue;
        }
        ++stats.partitions_scattered;
        if (collector != nullptr) collector->live().add_partition_scattered();
        resolve_pending(p, &stats);

        const bool trim_this_scan =
            options.trim && result.iterations >= options.trim_start_round &&
            frontier_fraction >= options.trim_min_frontier_fraction &&
            static_cast<double>(dead_seen[p]) >=
                options.trim_min_dead_fraction *
                    static_cast<double>(input_edges[p]);
        detail::StayTrimSink sink;
        sink.dead = options.trim ? claimed : nullptr;
        sink.collecting = trim_this_scan;

        metrics::ScopedPhase scatter_timer(collector,
                                           metrics::Phase::kScatter);
        // Scans partition p's current input, building each active-source
        // update from the round number. The input (a decoded stay
        // included) and the scan's readers are gone before the stay
        // stream can commit a rename. A partition file brings its block
        // index, so a scan that does not trim reads only the blocks
        // holding an active source; stays carry no index.
        detail::ScatterResult scattered;
        {
          detail::ScanInput input;
          input.partition = p;
          input.records = input_edges[p];
          if (!input_on_stay[p]) {
            input.device = &plan.edges();
            input.name = pg.partition_file(p);
            if (!pg.blocks.empty()) input.blocks = pg.blocks[p];
          } else if (stay_format[p] == io::codec::Format::kRaw) {
            input.device = &plan.stay();
            input.name = stay_file_name(pg, p);
            input.offset = io::codec::kHeaderBytes;
          } else {
            input.decoded = io::codec::read_all<graph::Edge>(
                plan.stay(), stay_file_name(pg, p), options.reader,
                input_edges[p]);
          }
          scattered = detail::scatter_partition<P>(
              exec, input, layout,
              detail::RoundScatter<P>{program, result.iterations,
                                      frontier_masks},
              active, program, options.reader,
              sieve_windows ? &*sieve_windows : nullptr, fanout, sink,
              collector);
        }
        FB_CHECK_MSG(scattered.scanned + scattered.skipped == input_edges[p],
                     "partition " << p << " input of " << pg.meta.name
                                  << " covered " << scattered.scanned << " + "
                                  << scattered.skipped << " edges, expected "
                                  << input_edges[p]);
        stats.edges_scanned += scattered.scanned;
        stats.edges_probed += scattered.probed;
        stats.edge_bytes_skipped += scattered.skipped * sizeof(graph::Edge);
        stats.updates_sieved += scattered.sieved;
        dead_seen[p] = scattered.dead;
        if (trim_this_scan) {
          // Encode the whole survivor stream under the stay codec and
          // hand it to the stay writer whole (.wip-staged, cancellable).
          const std::uint64_t survivors = input_edges[p] - scattered.dead;
          FB_CHECK_EQ(sink.staged.size(), survivors);
          io::codec::EncodeOptions eopts;
          eopts.policy = options.stay_codec;
          // Multi-edges must keep their multiplicity (a collapsed
          // duplicate would change scanned and dead counts), so the
          // bitmap format never applies.
          eopts.allow_bitmap = false;
          eopts.range_begin = 0;
          eopts.range_end = n;
          io::codec::EncodedBlob blob =
              io::codec::encode_records<graph::Edge>(sink.staged, eopts);
          const io::AsyncWriter::StreamId stay_id = writer->write_staged(
              plan.stay(), stay_file_name(pg, p), std::move(blob.bytes));
          ++result.trims_started;
          ++stats.trims_started;
          stats.stay_edges_written += survivors;
          result.stay_edges_written += survivors;
          pending[p] = detail::PendingTrim{stay_id, survivors, blob.format};
        }
      }
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        const auto closed =
            fanout.close(pending_updates, blob_budget, resident_updates);
        stats.updates_emitted = closed.updates;
        stats.update_codec_bytes = closed.encoded_bytes;
      }
      stats.scatter_seconds = scatter_clock.seconds();
    }
    if (stats.updates_emitted == 0) {
      // The uncounted final round may still have resolved or started
      // trims; fold its counters into the epilogue row so the run
      // totals keep reconciling against the per-iteration rows. (Its
      // I/O reaches that row at the end of the run, with the rest of
      // the call's I/O that no round's row holds.)
      result.epilogue.trims_started += stats.trims_started;
      result.epilogue.trims_committed += stats.trims_committed;
      result.epilogue.trims_cancelled += stats.trims_cancelled;
      result.epilogue.trims_failed += stats.trims_failed;
      result.epilogue.stay_edges_written += stats.stay_edges_written;
      break;
    }
    result.updates_emitted += stats.updates_emitted;
    if (stats.bottomup) {
      ++result.bottomup_rounds;
      if (collector != nullptr) collector->live().add_bottomup_round();
    }

    next_active.reset();
    {
      Stopwatch gather_clock;
      detail::gather_partitions(pg, plan, options.reader, store, program,
                                pending_updates, resident_updates, next_active,
                                exec, collector, &result.arrivals,
                                tracker ? &*tracker : nullptr);
      stats.gather_seconds = gather_clock.seconds();
    }

    ++result.iterations;
    std::swap(active, next_active);
    // The freshly activated vertices are claimed from here on, and dead
    // once they scatter — exactly what the next round's bottom-up
    // probe, trim sink and cost model must see. (Masked deadness is
    // saturation, which the gather pass just refreshed.)
    if (visited) visited->or_with(active);
    stats.activated = active.count_set();
    stats.seconds = round_clock.seconds();
    metrics::capture_iteration_io(plan, io_before, stats);
    detail::log_iteration(P::kName, stats);
    result.per_iteration.push_back(stats);
    if (collector != nullptr) collector->end_iteration(stats);
    if (!active.any()) break;
  }

  // ---- settle the trims the run ended on, collect, tidy.
  if constexpr (masked) {
    // Final convergence: queries with no frontier left anywhere are
    // done (a clean stop converges all of them; an iteration-cap stop
    // reports the true residue).
    if (collector != nullptr) {
      const auto final_masks = tracker->round_masks(active);
      collector->live().set_queries_converged(
          batch_width -
          static_cast<std::uint32_t>(std::popcount(final_masks.active_mask)));
    }
  }
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    resolve_pending(p, &result.epilogue);
  }
  // Reconcile: run-level trim totals == per-iteration rows + epilogue.
  // Drift here means a resolution was dropped or double-counted.
  {
    metrics::IterationStats sum = result.epilogue;
    for (const metrics::IterationStats& s : result.per_iteration) {
      sum.trims_started += s.trims_started;
      sum.trims_committed += s.trims_committed;
      sum.trims_cancelled += s.trims_cancelled;
      sum.trims_failed += s.trims_failed;
      sum.stay_edges_written += s.stay_edges_written;
    }
    FB_CHECK_EQ(sum.trims_started, result.trims_started);
    FB_CHECK_EQ(sum.trims_committed, result.trims_committed);
    FB_CHECK_EQ(sum.trims_cancelled, result.trims_cancelled);
    FB_CHECK_EQ(sum.trims_failed, result.trims_failed);
    FB_CHECK_EQ(sum.stay_edges_written, result.stay_edges_written);
  }
  writer.reset();  // joins the stay writer: its last write is done
  result.states = store.collect();
  if (!options.keep_files) detail::remove_run_files(pg, plan);
  metrics::capture_epilogue_io(plan, io_at_start, result.per_iteration,
                               result.epilogue);
  return result;
}

}  // namespace fbfs::core
