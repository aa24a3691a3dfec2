// The acceptance suite for the FastBFS engine: BFS, on every
// generator family, must produce BIT-IDENTICAL results from core::run
// and the in-memory reference — at multiple partition counts, with
// trimming off, trimming on, and trimming on with a zero grace timeout
// (the swap is refused whenever the stream has not already committed,
// exercising the cancellation/fallback path mid-matrix), each at
// T∈{1,2,4} worker threads. Three memory budgets rotate over those cells:
// every state and (raw) update file on the device; exactly the states
// resident, so every (varint) update blob spills; the default, which
// holds states and blobs alike. Trimming, threading and the budget are
// pure I/O-volume/wall-clock optimisations; if any of them changes a
// bit, it is a bug.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "common/temp_dir.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "inmem/engine.hpp"

namespace fbfs {
namespace {

using graph::BfsProgram;
using graph::GraphMeta;

GraphMeta materialize(io::Device& dev, const std::string& name,
                      const graph::ChunkedEdgeSource& source) {
  return graph::write_generated(
      dev, name, source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
}

GraphMeta rmat_meta(io::Device& dev) {
  return materialize(dev, "rmat",
                     graph::RmatSource({.scale = 9, .edge_factor = 8,
                                        .seed = 7}));
}

GraphMeta er_meta(io::Device& dev) {
  return materialize(dev, "er",
                     graph::ErdosRenyiSource({.num_vertices = 1000,
                                              .num_edges = 8000, .seed = 11}));
}

GraphMeta grid_meta(io::Device& dev) {
  return materialize(dev, "grid",
                     graph::Grid2dSource({.width = 24, .height = 24}));
}

struct TrimConfig {
  const char* tag;
  bool trim;
  double grace_seconds;
};

constexpr TrimConfig kTrimConfigs[] = {
    {"trim-off", false, 5.0},
    {"trim-on", true, 5.0},
    // Zero grace: every pending stream still active at the next scan of
    // its partition is cancelled and the previous input reused.
    {"trim-on-zero-grace", true, 0.0},
};

template <graph::GraphProgram P>
void expect_equivalent(io::Device& dev, const GraphMeta& meta,
                       const P& program) {
  const auto reference = inmem::run_graph(dev, meta, program);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const std::uint32_t partition_counts[] = {2, 5};
  const std::uint32_t thread_counts[] = {1, 2, 4};
  // The memory-budget axis (see the header comment).
  const std::uint64_t budgets[] = {
      0, meta.num_vertices * sizeof(typename P::State),
      engine::Options{}.memory_budget_bytes};
  for (std::size_t pi = 0; pi < std::size(partition_counts); ++pi) {
    const std::uint32_t parts = partition_counts[pi];
    const graph::PartitionedGraph pg =
        graph::partition_edge_list(plan, meta, parts);
    for (std::size_t ci = 0; ci < std::size(kTrimConfigs); ++ci) {
      const TrimConfig& cfg = kTrimConfigs[ci];
      for (std::size_t ti = 0; ti < std::size(thread_counts); ++ti) {
        const std::uint32_t threads = thread_counts[ti];
        // A Latin square over trim configs x thread counts, shifted per
        // partition count: every budget meets every config and every
        // thread count, and the matrix keeps its size.
        const std::uint64_t budget = budgets[(pi + ci + ti) % 3];
        SCOPED_TRACE(std::string(P::kName) + " on " + meta.name + ", P=" +
                     std::to_string(parts) + ", " + cfg.tag + ", T=" +
                     std::to_string(threads) + ", budget=" +
                     std::to_string(budget));
        engine::Options options;
        options.trim = cfg.trim;
        options.grace_timeout_seconds = cfg.grace_seconds;
        options.num_threads = threads;
        options.memory_budget_bytes = budget;
        // Budget-0 cells stream raw update files. The others write
        // varint ones, which are staged, so the budget can keep their
        // blobs in memory; varint keeps every update, so the emitted
        // counts still match inmem's.
        if (budget > 0) options.update_codec = io::codec::Policy::kVarint;
        // T > 1 cuts scans into 1 KiB (128-edge) units, so the workers
        // retire many units of one partition concurrently.
        if (threads > 1) options.reader.buffer_bytes = 1024;
        const auto streamed = core::run(pg, plan, program, options);

        ASSERT_EQ(streamed.iterations, reference.iterations);
        ASSERT_EQ(streamed.updates_emitted, reference.updates_emitted);
        ASSERT_EQ(streamed.states.size(), reference.states.size());
        ASSERT_EQ(
            std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() * sizeof(typename P::State)),
            0);
        if (!cfg.trim) {
          ASSERT_EQ(streamed.trims_started, 0u);
        } else if (streamed.iterations > 1) {
          // The eager default really trims on multi-round BFS runs.
          ASSERT_GT(streamed.trims_started, 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- BFS

TEST(CoreEquivalence, BfsOnRmat) {
  TempDir dir("core_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, rmat_meta(dev), BfsProgram{.root = 0});
}

TEST(CoreEquivalence, BfsOnErdosRenyi) {
  TempDir dir("core_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, er_meta(dev), BfsProgram{.root = 3});
}

TEST(CoreEquivalence, BfsOnGrid) {
  TempDir dir("core_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, grid_meta(dev), BfsProgram{.root = 0});
}

// --------------------------------------------------- device placement

TEST(CoreEquivalence, DualPlanRoutesStayTrafficToAux) {
  // dual() puts updates AND stay on the aux device; trimming must not
  // change a byte, and the stay stream must actually land on aux.
  TempDir dir("core_equiv");
  io::Device main_dev(dir.str() + "/main", io::DeviceModel::unthrottled());
  io::Device aux_dev(dir.str() + "/aux", io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(main_dev);
  const auto reference = inmem::run_graph(main_dev, meta, BfsProgram{});

  const io::StoragePlan plan = io::StoragePlan::dual(main_dev, aux_dev);
  const graph::PartitionedGraph pg =
      graph::partition_edge_list(plan, meta, 4);
  const auto streamed = core::run(pg, plan, BfsProgram{}, {});
  ASSERT_EQ(streamed.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() *
                            sizeof(BfsProgram::State)),
            0);
  EXPECT_EQ(streamed.iterations, reference.iterations);
  EXPECT_GT(streamed.trims_started, 0u);
  EXPECT_GT(aux_dev.stats().bytes_written(), 0u);
}

}  // namespace
}  // namespace fbfs
