#include "bench_common.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "engine/api.hpp"
#include "graph/multi_bfs.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::bench {

using graph::BfsProgram;

Dataset make_dataset(const std::string& root, const std::string& name,
                     const graph::ChunkedEdgeSource& source,
                     std::uint32_t partitions) {
  Dataset ds;
  ds.name = name;
  ds.partitions = partitions;
  ds.root = root;
  io::Device edges(root + "/edges", io::DeviceModel::unthrottled());
  std::vector<std::uint32_t> out_degree(source.num_vertices(), 0);
  ds.meta = graph::write_generated(
      edges, name, source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) {
        source.generate([&](const graph::Edge& e) {
          ++out_degree[e.src];
          sink(e);
        });
      });
  for (graph::VertexId v = 0; v < out_degree.size(); ++v) {
    if (out_degree[v] > out_degree[ds.bfs_root]) ds.bfs_root = v;
  }
  // Batch roots: top 64 distinct vertices by (out-degree desc, id asc),
  // degree-0 vertices excluded (a rootless query converges in round 0
  // and measures nothing). The first entry reproduces bfs_root's
  // max-degree/smallest-id pick exactly.
  {
    std::vector<graph::VertexId> order(out_degree.size());
    for (graph::VertexId v = 0; v < order.size(); ++v) order[v] = v;
    std::sort(order.begin(), order.end(),
              [&](graph::VertexId a, graph::VertexId b) {
                if (out_degree[a] != out_degree[b]) {
                  return out_degree[a] > out_degree[b];
                }
                return a < b;
              });
    for (const graph::VertexId v : order) {
      if (out_degree[v] == 0) break;
      ds.batch_roots.push_back(v);
      if (ds.batch_roots.size() == graph::kMaxBatchQueries) break;
    }
    FB_CHECK_MSG(!ds.batch_roots.empty() && ds.batch_roots[0] == ds.bfs_root,
                 "batch root order diverged from the bfs_root pick");
  }
  ds.pg = graph::partition_edge_list(edges, ds.meta, partitions);
  // Prebuild the transposed (in-edge) view here, unthrottled: building
  // it is preprocessing, like partitioning; measured bottom-up runs
  // cache-hit the sidecar and pay only for the scans.
  graph::build_transposed_view(io::StoragePlan::single(edges), ds.pg);
  ds.reference =
      inmem::run_graph(edges, ds.meta, BfsProgram{.root = ds.bfs_root}).states;
  return ds;
}

std::vector<Dataset> evaluation_datasets(const std::string& workspace,
                                         bool quick) {
  std::vector<Dataset> sets;
  sets.push_back(make_dataset(
      workspace + "/rmat", "rmat",
      graph::RmatSource(
          {.scale = quick ? 14u : 18u, .edge_factor = 16, .seed = 20160523}),
      /*partitions=*/4));
  sets.push_back(make_dataset(
      workspace + "/twitter_like", "twitter_like",
      graph::TwitterLikeSource(
          {.num_vertices = quick ? (16ull << 10) : (512ull << 10),
           .num_edges = quick ? (256ull << 10) : (8ull << 20),
           .seed = 7}),
      /*partitions=*/4));
  if (!quick) {
    sets.push_back(
        make_dataset(workspace + "/friendster_like", "friendster_like",
                     graph::FriendsterLikeSource({.num_vertices = 1ull << 20,
                                                  .num_undirected_edges =
                                                      6ull << 20,
                                                  .seed = 9}),
                     /*partitions=*/8));
  }
  return sets;
}

metrics::RunStats run_bfs(const Dataset& ds, const SystemOptions& options) {
  // One modelled device per role: the RunStats per-role rows are then
  // exactly this run's traffic, with nothing shared or carried over.
  io::Device edges(ds.root + "/edges", options.model);
  io::Device state(ds.root + "/state", options.model);
  io::Device updates(ds.root + "/updates", options.model);
  io::Device stay(ds.root + "/stay", options.model);
  io::StoragePlan plan = io::StoragePlan::single(edges)
                             .assign(io::Role::kState, state)
                             .assign(io::Role::kUpdates, updates)
                             .assign(io::Role::kStay, stay);

  metrics::Collector collector(options.collector);
  engine::Options run_options;
  run_options.num_threads = options.num_threads;
  run_options.trim_min_dead_fraction = options.trim_min_dead_fraction;
  run_options.update_codec = options.update_codec;
  run_options.stay_codec = options.update_codec;
  run_options.sieve_updates = options.sieve_updates;
  run_options.direction = options.direction;
  // Budget 0 keeps every state and update file on its device: these
  // benches report per-role device bytes of the out-of-core regime.
  run_options.memory_budget_bytes = 0;
  run_options.collector = &collector;
  const std::vector<BfsProgram::State> states =
      engine::run(options.kind, ds.pg, plan, BfsProgram{.root = ds.bfs_root},
                  run_options)
          .states;

  const char* system =
      options.kind == engine::Kind::kCore ? "fastbfs" : "xstream";
  FB_CHECK_MSG(states.size() == ds.reference.size() &&
                   std::memcmp(states.data(), ds.reference.data(),
                               states.size() * sizeof(BfsProgram::State)) == 0,
               system << " on " << ds.name
                      << " diverged from the in-memory reference");

  metrics::RunStats stats = std::move(collector.run_stats());
  stats.label = ds.name + "/" + system;
  return stats;
}

}  // namespace fbfs::bench
