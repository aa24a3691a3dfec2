// The acceptance suite for the GraphProgram API: BFS, on every
// generator family, must produce BIT-IDENTICAL results from the
// X-Stream preset of the streaming engine (Kind::kXstream) and the
// in-memory reference — at multiple partition counts, at T∈{1,2,4}
// worker threads, at two of three memory budgets per such cell (every
// state and update file on the device, exactly the states resident, the
// default), and regardless of device placement.
// This is what licenses PR 4's I/O optimisations to validate against
// inmem instead of re-deriving ground truth per algorithm.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"

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

/// Runs `program` through the in-memory reference once, then through
/// the streaming engine at two partition counts x T∈{1,2,4} worker
/// threads x two memory budgets, rotating the three budgets over those
/// cells, demanding identical iteration counts, identical update
/// totals, and byte-identical states.
template <graph::GraphProgram P>
void expect_equivalent(io::Device& dev, const GraphMeta& meta,
                       const P& program) {
  const auto reference = inmem::run_graph(dev, meta, program);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const std::uint32_t partition_counts[] = {2, 5};
  const std::uint32_t thread_counts[] = {1, 2, 4};
  const std::uint64_t budgets[] = {
      0, meta.num_vertices * sizeof(typename P::State),
      engine::Options{}.memory_budget_bytes};
  for (std::size_t pi = 0; pi < std::size(partition_counts); ++pi) {
    const std::uint32_t parts = partition_counts[pi];
    const graph::PartitionedGraph pg =
        graph::partition_edge_list(plan, meta, parts);
    for (std::size_t ti = 0; ti < std::size(thread_counts); ++ti) {
      const std::uint32_t threads = thread_counts[ti];
      // Every budget meets every partition count and thread count.
      for (std::size_t bi = 0; bi < 2; ++bi) {
        const std::uint64_t budget = budgets[(pi + ti + bi) % 3];
        SCOPED_TRACE(std::string(P::kName) + " on " + meta.name + ", P=" +
                     std::to_string(parts) + ", T=" +
                     std::to_string(threads) +
                     ", budget=" + std::to_string(budget));
        engine::Options options;
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
        const auto streamed =
            engine::run(engine::Kind::kXstream, pg, plan, program, options);

        ASSERT_EQ(streamed.iterations, reference.iterations);
        ASSERT_EQ(streamed.updates_emitted, reference.updates_emitted);
        ASSERT_EQ(streamed.states.size(), reference.states.size());
        ASSERT_EQ(
            std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() * sizeof(typename P::State)),
            0);
      }
    }
  }
}

// ---------------------------------------------------------------- BFS

TEST(Equivalence, BfsOnRmat) {
  TempDir dir("equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, rmat_meta(dev), BfsProgram{.root = 0});
}

TEST(Equivalence, BfsOnErdosRenyi) {
  TempDir dir("equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, er_meta(dev), BfsProgram{.root = 3});
}

TEST(Equivalence, BfsOnGrid) {
  TempDir dir("equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_equivalent(dev, grid_meta(dev), BfsProgram{.root = 0});
}

// --------------------------------------------------- device placement

TEST(Equivalence, DualPlanMatchesSinglePlan) {
  // Splitting update/stay streams onto a second device must not change
  // a single byte of the result — placement is pure I/O routing.
  TempDir dir("equiv");
  io::Device main_dev(dir.str() + "/main", io::DeviceModel::unthrottled());
  io::Device aux_dev(dir.str() + "/aux", io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(main_dev);
  const auto reference = inmem::run_graph(main_dev, meta, BfsProgram{});

  const io::StoragePlan plan = io::StoragePlan::dual(main_dev, aux_dev);
  const graph::PartitionedGraph pg =
      graph::partition_edge_list(plan, meta, 4);
  const auto streamed =
      engine::run(engine::Kind::kXstream, pg, plan, BfsProgram{});
  ASSERT_EQ(streamed.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() *
                            sizeof(BfsProgram::State)),
            0);
  EXPECT_EQ(streamed.iterations, reference.iterations);
  EXPECT_GT(aux_dev.stats().bytes_written(), 0u);  // updates really moved
}

}  // namespace
}  // namespace fbfs
