// The acceptance suite for the FastBFS engine: BFS, on every
// generator family, must produce BIT-IDENTICAL results from core::run
// and the in-memory reference — at multiple partition counts, with
// trimming off, trimming on, and trimming on with a zero grace timeout
// (the swap is refused whenever the stream has not already committed,
// exercising the cancellation/fallback path mid-matrix), each at
// T∈{1,2,4} worker threads. Trimming and threading are pure I/O-volume/
// wall-clock optimisations; if either changes a bit, it is a bug.
#include <gtest/gtest.h>

#include <cstring>
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
  for (const std::uint32_t parts : {2u, 5u}) {
    const graph::PartitionedGraph pg =
        graph::partition_edge_list(plan, meta, parts);
    for (const TrimConfig& cfg : kTrimConfigs) {
      for (const std::uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(P::kName) + " on " + meta.name + ", P=" +
                     std::to_string(parts) + ", " + cfg.tag + ", T=" +
                     std::to_string(threads));
        engine::Options options;
        options.trim = cfg.trim;
        options.grace_timeout_seconds = cfg.grace_seconds;
        options.num_threads = threads;
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
