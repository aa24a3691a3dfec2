// GraphProgram semantics, independent of any engine: the scatter /
// gather contracts BFS and SSSP promise, and the sieve predicates that
// must keep gather an order-free fold, because the engines deliver
// updates in different orders.
#include "graph/program.hpp"

#include <gtest/gtest.h>

namespace fbfs::graph {
namespace {

TEST(Programs, BfsScatterCarriesNextLevelAndGatherTakesTheMin) {
  const BfsProgram bfs{.root = 3};
  BfsProgram::State s;
  bool active = false;
  bfs.init(3, s, active);
  EXPECT_TRUE(active);
  EXPECT_EQ(s.level, 0u);
  bfs.init(2, s, active);
  EXPECT_FALSE(active);
  EXPECT_EQ(s.level, kUnreachedLevel);

  BfsProgram::Update u;
  ASSERT_TRUE(bfs.scatter({3, 2}, {.level = 4}, u));
  EXPECT_EQ(u.dst, 2u);
  EXPECT_EQ(u.level, 5u);

  BfsProgram::State dst{.level = kUnreachedLevel};
  EXPECT_TRUE(bfs.gather({2, 5}, dst));   // first reach activates
  EXPECT_EQ(dst.level, 5u);
  EXPECT_FALSE(bfs.gather({2, 9}, dst));  // worse level is a no-op
  EXPECT_EQ(dst.level, 5u);
  EXPECT_TRUE(bfs.gather({2, 1}, dst));
  EXPECT_EQ(dst.level, 1u);
}

TEST(Programs, SievePredicatesAreMinFoldsForTheScalarPrograms) {
  // dominates(a, b) must mean "after delivering a, b is redundant" and
  // sieve_merge(champion, u) must leave the champion equivalent to
  // delivering both — the sieve's exactness contract (program.hpp).
  const BfsProgram bfs;
  EXPECT_TRUE(bfs.dominates({2, 3}, {2, 3}));   // equal level: redundant
  EXPECT_TRUE(bfs.dominates({2, 3}, {2, 7}));   // worse level: redundant
  EXPECT_FALSE(bfs.dominates({2, 3}, {2, 1}));  // better level survives
  BfsProgram::Update bfs_champ{2, 3};
  bfs.sieve_merge(bfs_champ, {2, 1});  // min-fold: the winner replaces
  EXPECT_EQ(bfs_champ.level, 1u);

  const SsspProgram sssp;
  EXPECT_TRUE(sssp.dominates({4, 1.5f}, {4, 2.5f}));
  EXPECT_FALSE(sssp.dominates({4, 1.5f}, {4, 0.5f}));
  SsspProgram::Update sssp_champ{4, 1.5f};
  sssp.sieve_merge(sssp_champ, {4, 0.5f});
  EXPECT_EQ(sssp_champ.dist, 0.5f);
}

TEST(Programs, SsspWeightsAreDeterministicPerEdgeAndBounded) {
  const Edge e{11, 29};
  const float w = edge_weight(e);
  EXPECT_EQ(w, edge_weight(e));  // pure function of the edge
  EXPECT_GE(w, 1.0f);
  EXPECT_LT(w, 2.0f);
  EXPECT_NE(edge_weight({11, 29}), edge_weight({29, 11}));

  const SsspProgram sssp{.root = 0};
  SsspProgram::Update u;
  ASSERT_TRUE(sssp.scatter(e, {.dist = 2.5f}, u));
  EXPECT_EQ(u.dst, 29u);
  EXPECT_EQ(u.dist, 2.5f + w);
}

}  // namespace
}  // namespace fbfs::graph
