// Shared environment for the figure benches (Figs. 5/6 today).
//
// A Dataset is generated and partitioned once through *unthrottled*
// devices — preprocessing is excluded from the paper's execution
// numbers — and every measured run then opens fresh modelled devices
// (one per storage role, so per-role byte counters are exact) over the
// same file roots. The BFS root is the highest-out-degree vertex, so
// the traversal covers most of the graph instead of a lucky corner.
//
// Measured runs go through a fresh metrics::Collector and return its
// RunStats: per-iteration rows with per-role bytes, modelled device
// busy time (the Fig. 6 iowait input), and per-phase latency
// histograms. Every run is checked bit-identical against the in-memory
// reference before its numbers are reported — a config that changes a
// result is a bug, not a data point.
#pragma once

#include <string>
#include <vector>

#include "engine/types.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "metrics/run_stats.hpp"
#include "storage/codec.hpp"
#include "storage/device.hpp"

namespace fbfs::bench {

struct Dataset {
  std::string name;
  graph::GraphMeta meta;
  std::uint32_t partitions = 0;
  graph::VertexId bfs_root = 0;  // highest out-degree vertex
  /// Deterministic multi-source batch roots: the top (up to) 64
  /// DISTINCT vertices by out-degree, ties broken by smaller id, only
  /// vertices with at least one out-edge. batch_roots[0] == bfs_root,
  /// so single-query and batch benches traverse from the same anchor.
  std::vector<graph::VertexId> batch_roots;
  std::string root;              // per-role device roots live under here
  std::vector<graph::BfsProgram::State> reference;  // inmem ground truth
  graph::PartitionedGraph pg;
};

/// Generates, partitions, picks the BFS root, and runs the in-memory
/// reference — all on unthrottled devices (setup is free).
Dataset make_dataset(const std::string& root, const std::string& name,
                     const graph::ChunkedEdgeSource& source,
                     std::uint32_t partitions);

/// The evaluation set for Figs. 5/6: r-mat plus the twitter-like
/// power-law graph in quick mode; the full set adds a larger r-mat and
/// the friendster-like symmetric graph (Table II, scaled — the real
/// twitter_rv/friendster crawls are out of scope for a test box).
std::vector<Dataset> evaluation_datasets(const std::string& workspace,
                                         bool quick);

struct SystemOptions {
  io::DeviceModel model = io::DeviceModel::hdd();  // per-role device model
  /// kCore: FastBFS. kXstream: the untrimmed, top-down X-Stream preset,
  /// which ignores the trim and direction fields below.
  engine::Kind kind = engine::Kind::kCore;
  std::uint32_t num_threads = 1;
  /// FastBFS runs the paper's §II-C3 dynamic trim threshold (wait
  /// until 25% of a partition's input is dead before paying for a
  /// rewrite), as Figs. 4-7 do; 0 restores eager trimming.
  double trim_min_dead_fraction = 0.25;
  /// Update-stream codec policy (storage/codec.hpp), threaded into
  /// either kind; FastBFS runs its stay streams under the same policy,
  /// matching the `updates.codec` config default.
  io::codec::Policy update_codec = io::codec::Policy::kRaw;
  /// Staging-buffer sieve (exact for BFS's min-fold gather).
  bool sieve_updates = false;
  /// Traversal-direction strategy (core.direction). The transposed
  /// view is prebuilt at dataset setup, so measured runs only pay the
  /// bottom-up scans themselves.
  engine::Direction direction = engine::Direction::kTopDown;
  metrics::CollectorOptions collector;
};

/// One measured BFS run through a fresh Collector. The returned
/// RunStats is labelled "<dataset>/<system>" and its rows carry the
/// exact per-role byte deltas from the run's own devices.
metrics::RunStats run_bfs(const Dataset& ds, const SystemOptions& options);

}  // namespace fbfs::bench
