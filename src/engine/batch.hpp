// engine::run_batch — the batched multi-source front door. Packs up to
// 64 BFS sources into one graph::MultiBfs traversal (one edge scan for
// the whole batch) and unpacks per-query BfsProgram-shaped results that
// are bit-identical to running each source on its own.
//
// Wider source lists split into ceil(N / 64) traversals, each at most
// graph::kMaxBatchQueries queries, preserving source order across the
// splits. A narrower split would only give up scan sharing: the 24-byte
// State and 16-byte Update are the same at any width, and the per-query
// outputs total 4 bytes per vertex per source however the list is
// split. The per-traversal RunResults ride along in the return value so
// a bench can sum edge/update bytes over the whole batch. Per-query
// levels come from replaying each traversal's arrival log
// (RunResult::arrivals; graph/multi_bfs.hpp) in one pass.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "engine/api.hpp"
#include "engine/types.hpp"
#include "graph/multi_bfs.hpp"

namespace fbfs::engine {

/// The one MultiBfs instantiation the batch API runs. A batch's last,
/// narrower split uses the same type with width < 64: the unused high
/// bits never set, so they cost mask space, not traffic (updates are
/// sieved/coded by content, and saturation checks use full_mask()).
using MultiBfs64 = graph::MultiBfs<graph::kMaxBatchQueries>;

struct BatchRunResult {
  /// per_query[i] = BFS-from-sources[i] states for all vertices, in the
  /// caller's source order (bit-identical to a standalone BfsProgram
  /// run from that source).
  std::vector<std::vector<graph::BfsProgram::State>> per_query;
  /// The underlying traversals, one per <= 64-source slice of the
  /// source list, for callers that aggregate I/O or iteration stats.
  std::vector<RunResult<MultiBfs64>> traversals;
};

/// Runs BFS from every source in `sources` (order preserved, duplicates
/// allowed — each occurrence gets its own query bit) through `kind`,
/// batching up to graph::kMaxBatchQueries sources per traversal.
inline BatchRunResult run_batch(Kind kind, const graph::PartitionedGraph& pg,
                                const io::StoragePlan& plan,
                                std::span<const graph::VertexId> sources,
                                const Options& options = {}) {
  FB_CHECK_MSG(!sources.empty(), "run_batch needs at least one source");
  for (const graph::VertexId s : sources) {
    FB_CHECK_MSG(s < pg.meta.num_vertices,
                 "batch source " << s << " >= num_vertices "
                                 << pg.meta.num_vertices);
  }

  BatchRunResult result;
  result.per_query.reserve(sources.size());
  for (std::size_t begin = 0; begin < sources.size();
       begin += graph::kMaxBatchQueries) {
    const std::uint32_t width = static_cast<std::uint32_t>(
        std::min<std::size_t>(graph::kMaxBatchQueries,
                              sources.size() - begin));
    MultiBfs64 program;
    program.width = width;
    for (std::uint32_t b = 0; b < width; ++b) {
      program.roots[b] = sources[begin + b];
    }
    RunResult<MultiBfs64> run_result =
        run(kind, pg, plan, program, options);
    for (std::vector<graph::BfsProgram::State>& levels :
         program.replay(run_result.arrivals, pg.meta.num_vertices)) {
      result.per_query.push_back(std::move(levels));
    }
    result.traversals.push_back(std::move(run_result));
  }
  return result;
}

}  // namespace fbfs::engine
