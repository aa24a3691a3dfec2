// The in-memory reference engine against hand-computable ground truth:
// if this engine is wrong, every equivalence test downstream is
// comparing the streaming engine to garbage.
#include "inmem/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/temp_dir.hpp"
#include "graph/generators.hpp"

namespace fbfs::inmem {
namespace {

using graph::BfsProgram;
using graph::Csr;
using graph::Edge;
using graph::kUnreachedLevel;

TEST(InMem, BfsLevelsOnAHandGraph) {
  //      0 -> 1 -> 2 -> 3      4 -> 0 (4 unreachable from 0)
  //      0 ------> 2
  const Csr csr(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {4, 0}, {0, 2}});
  const auto result = run(csr, BfsProgram{.root = 0});
  ASSERT_EQ(result.states.size(), 5u);
  EXPECT_EQ(result.states[0].level, 0u);
  EXPECT_EQ(result.states[1].level, 1u);
  EXPECT_EQ(result.states[2].level, 1u);  // direct edge beats the chain
  EXPECT_EQ(result.states[3].level, 2u);
  EXPECT_EQ(result.states[4].level, kUnreachedLevel);
  // Counted rounds: {0} reaches {1,2}; {1,2} reaches {3}; the round
  // scattering {3} emits nothing (no out-edges) and is uncounted.
  EXPECT_EQ(result.iterations, 2u);
}

TEST(InMem, BfsOnGridMatchesManhattanDistance) {
  TempDir dir("inmem");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const graph::Grid2dSource source({.width = 9, .height = 7});
  const graph::GraphMeta meta = graph::write_generated(
      dev, "grid", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  const auto result = run_graph(dev, meta, BfsProgram{.root = 0});
  // Vertex (x, y) is x + 9 * y; the lattice distance from the corner is
  // x + y.
  for (std::uint32_t y = 0; y < 7; ++y) {
    for (std::uint32_t x = 0; x < 9; ++x) {
      ASSERT_EQ(result.states[x + 9 * y].level, x + y) << x << "," << y;
    }
  }
  // Diameter 14 (= 8 + 6) rounds activate the far corner; its own
  // scatter still emits (lattice vertices always have neighbours), so
  // one more round runs, finds nothing new, and stops.
  EXPECT_EQ(result.iterations, 9u + 7 - 1);
}

TEST(InMem, IsolatedRootConvergesImmediately) {
  const Csr csr(3, std::vector<Edge>{{1, 2}});
  const auto result = run(csr, BfsProgram{.root = 0});
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.updates_emitted, 0u);
  EXPECT_EQ(result.states[0].level, 0u);
  EXPECT_EQ(result.states[1].level, kUnreachedLevel);
}

}  // namespace
}  // namespace fbfs::inmem
