// The streaming-partition scatter/gather engine (ROADMAP item 2): the
// X-Stream baseline FastBFS's trimming core (src/core) plugs into.
//
// The graph lives on disk as P partition edge files (partitioner.hpp:
// partition p owns the vertex range [begin(p), end(p)) and holds the
// out-edges of its sources). Vertex state also lives on disk, one State
// record file per partition, so resident memory per phase is one
// partition's states plus stream buffers — the out-of-core regime of
// the paper. Each round:
//
//   scatter  for each partition with an active source (every partition,
//            for kScatterAllVertices programs): load its state file,
//            stream its edge file through a factory reader
//            (plain/prefetch per EngineOptions), and append each
//            emitted Update to the update stream of the partition
//            owning the target — the shuffle happens in place via P
//            open RecordWriters on the updates device;
//   gather   for each partition with pending updates (or kNeedsApply):
//            load its state file, stream its update file, fold updates
//            into states, run apply over the partition when the
//            program needs it, and write the state file back.
//
// Round accounting and stop rules are EXACTLY inmem::run's (see that
// header; change both or neither) — that contract plus order-free
// gathers is why both engines produce bit-identical states at any
// partition count and either reader mode. The init pass, the update
// fan-out, and the whole gather phase are shared with core::run through
// xstream/detail.hpp; this engine's own code is just the plain scatter
// loop.
//
// Devices come from a StoragePlan: edges / state / updates are separate
// roles, so the paper's dual-disk placement is one plan away.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/types.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "metrics/device_usage.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"
#include "xstream/detail.hpp"

namespace fbfs::xstream {

/// The unified engine surface (engine/types.hpp — shared-key precedence
/// is documented there, once). This engine ignores the core-only
/// trim/direction fields; the trim/direction counters of its results
/// stay default-zero.
using EngineOptions = engine::Options;

template <graph::GraphProgram P>
using RunResult = engine::RunResult<P>;

/// engine::options_from_config(config, Kind::kXstream): `io.reader` /
/// `io.reader_buffer`, `xstream.write_buffer` > `engine.write_buffer`,
/// `xstream.max_iterations` > `engine.max_iterations`,
/// `engine.num_threads`, `updates.codec`, `updates.sieve`.
EngineOptions engine_options_from_config(const Config& config);

/// Reads `xstream.partition_count` > `engine.partition_count` >
/// `fallback`.
std::uint32_t partition_count_from_config(const Config& config,
                                          std::uint32_t fallback);

template <graph::GraphProgram P>
RunResult<P> run(const graph::PartitionedGraph& pg,
                 const io::StoragePlan& plan, const P& program,
                 const EngineOptions& options = {}) {
  using State = typename P::State;
  using Update = typename P::Update;
  FB_CHECK_MSG(!P::kRequiresUndirected || pg.meta.undirected,
               P::kName << " requires a symmetric edge list, but "
                        << pg.meta.name
                        << " is directed (symmetrize_edge_list)");
  const graph::PartitionLayout& layout = pg.layout;
  const std::uint32_t num_partitions = layout.num_partitions();
  const std::uint64_t n = layout.num_vertices();

  RunResult<P> result;
  AtomicBitmap active(n);
  AtomicBitmap next_active(n);

  const unsigned num_threads = resolve_thread_count(options.num_threads);
  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);
  const ExecContext exec{pool ? &*pool : nullptr};

  // Only masked programs ever append to the arrival log.
  detail::init_partition_states(pg, plan, options.reader,
                                options.write_buffer_bytes, program, active,
                                exec, &result.arrivals);

  // ---- rounds. Stop rules mirror inmem::run exactly.
  metrics::Collector* const collector = options.collector;
  std::vector<std::uint64_t> pending_updates(num_partitions, 0);
  while (result.iterations < options.max_iterations) {
    Stopwatch round_clock;
    IterationStats stats;
    stats.iteration = result.iterations;
    const metrics::RoleSnapshots io_before = plan.stats_snapshot();

    // Scatter.
    {
      Stopwatch scatter_clock;
      auto fanout = detail::open_update_fanout<Update>(
          pg, plan, options.write_buffer_bytes, options.update_codec,
          graph::kIdempotentGatherV<P>);
      detail::NullTrimSink no_trim;
      for (std::uint32_t p = 0; p < num_partitions; ++p) {
        if (!P::kScatterAllVertices &&
            !active.any_in_range(layout.begin(p), layout.end(p))) {
          ++stats.partitions_skipped;
          if (collector != nullptr) collector->live().add_partition_skipped();
          continue;
        }
        ++stats.partitions_scattered;
        if (collector != nullptr) collector->live().add_partition_scattered();
        metrics::ScopedPhase scatter_timer(collector,
                                           metrics::Phase::kScatter);
        const std::vector<State> states = detail::read_records<State>(
            plan.state(), state_file_name(pg, p), options.reader,
            layout.size(p));
        const detail::ScatterResult scattered = detail::scatter_partition<P>(
            exec, plan.edges(), pg.partition_file(p), /*base_offset=*/0,
            pg.edges_per_partition[p], layout,
            detail::StateScatter<P>{program, states, layout.begin(p)}, active,
            program, options.reader, options.sieve_updates, fanout, no_trim,
            collector);
        FB_CHECK_MSG(scattered.scanned == pg.edges_per_partition[p],
                     pg.partition_file(p)
                         << " scanned " << scattered.scanned
                         << " edges, expected " << pg.edges_per_partition[p]);
        stats.edges_scanned += scattered.scanned;
        stats.edges_probed += scattered.probed;
        stats.updates_sieved += scattered.sieved;
      }
      {
        metrics::ScopedPhase flush_timer(collector,
                                         metrics::Phase::kShuffleFlush);
        const auto closed = fanout.close(pending_updates);
        stats.updates_emitted = closed.updates;
        stats.update_codec_bytes = closed.file_bytes;
      }
      stats.scatter_seconds = scatter_clock.seconds();
    }
    if (stats.updates_emitted == 0 && !P::kScatterAllVertices) break;
    result.updates_emitted += stats.updates_emitted;

    next_active.reset();
    {
      Stopwatch gather_clock;
      detail::gather_partitions(pg, plan, options.reader,
                                options.write_buffer_bytes, program,
                                pending_updates, next_active, exec, collector,
                                &result.arrivals);
      stats.gather_seconds = gather_clock.seconds();
    }

    ++result.iterations;
    std::swap(active, next_active);
    stats.activated = active.count_set();
    stats.seconds = round_clock.seconds();
    metrics::capture_iteration_io(plan, io_before, stats);
    detail::log_iteration(P::kName, stats);
    result.per_iteration.push_back(stats);
    if (collector != nullptr) collector->end_iteration(stats);
    if (!P::kScatterAllVertices && !active.any()) break;
  }

  // ---- collect the final states (id order) and tidy the devices.
  result.states = detail::collect_states<P>(pg, plan, options.reader);
  if (!options.keep_files) {
    detail::remove_run_files(pg, plan);
  }
  return result;
}

}  // namespace fbfs::xstream
