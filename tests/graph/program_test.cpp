// GraphProgram semantics, independent of any engine: the scatter /
// gather contracts BFS promises, the sieve predicates that must keep
// gather an order-free fold, because the engines deliver updates in
// different orders, and the state-free hook every program must have.
#include "graph/program.hpp"

#include <gtest/gtest.h>

#include "graph/multi_bfs.hpp"

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
}

/// A min-fold program with every other GraphProgram member but neither
/// state-free hook (pull, pull_masked): its updates depend on source
/// state, so core could neither trim it nor scatter it without loading
/// state files.
struct ScatterOnly {
  static constexpr const char* kName = "scatter-only";
  struct State {
    std::uint32_t value = 0;
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t value = 0;
  };
  void init(VertexId, State& s, bool& active) const {
    s.value = 0;
    active = false;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.value + 1};
    return true;
  }
  bool gather(const Update& u, State& dst) const {
    if (u.value >= dst.value) return false;
    dst.value = u.value;
    return true;
  }
  bool dominates(const Update& a, const Update& b) const {
    return b.value >= a.value;
  }
  void sieve_merge(Update& champion, const Update& u) const { champion = u; }
};

TEST(Programs, EveryProgramHasAStateFreeHook) {
  EXPECT_TRUE(GraphProgram<BfsProgram>);
  EXPECT_TRUE(GraphProgram<MultiBfs<64>>);
  EXPECT_FALSE(GraphProgram<ScatterOnly>);
}

}  // namespace
}  // namespace fbfs::graph
