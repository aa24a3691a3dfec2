// Batched multi-source traversal (graph::MultiBfs + engine::run_batch):
// the mask mechanics (init/gather fold/stale-frontier clear/
// idempotence), the arrival log (records and replay), the
// subset-dominance sieve hooks, batch splitting, and the acceptance
// matrix — B in {1, 7, 64} sources on
// three graph shapes through xstream and core x threads x trim x
// direction, with three memory budgets rotated over the cells, every
// query memcmp'd against its own standalone in-memory BFS, plus the
// arrival log's cross-engine bytes and the state device's write budget.
#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"
#include "storage/codec.hpp"

namespace fbfs {
namespace {

using engine::Direction;
using engine::Kind;
using graph::BfsProgram;
using graph::kUnreachedLevel;
using graph::MultiBfs;
using graph::VertexId;

using Msbfs = engine::MultiBfs64;

// The streamed per-vertex state is the masks, the mark and padding:
// per-query levels travel in the arrival log instead.
static_assert(sizeof(Msbfs::State) == 24);

bool same_update(const Msbfs::Update& a, const Msbfs::Update& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// ------------------------------------------------------ mask mechanics

TEST(MultiBfsMechanics, InitSetsOnlyRootBitsAndLevels) {
  Msbfs program;
  program.width = 3;
  program.roots = {5, 9, 5};  // queries 0 and 2 share a root
  EXPECT_EQ(program.full_mask(), 0b111u);

  Msbfs::State s;
  bool active = false;
  program.init(5, s, active);
  EXPECT_TRUE(active);
  EXPECT_EQ(s.seen, 0b101u);
  EXPECT_EQ(s.frontier, 0b101u);
  // The root's arrival record: both its queries at level 0.
  EXPECT_TRUE(same_update(program.arrival(5, s),
                          {.dst = 5, .level = 0, .mask = 0b101}));

  program.init(7, s, active);
  EXPECT_FALSE(active);
  EXPECT_EQ(s.seen, 0u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(s.mark, 0u);
}

TEST(MultiBfsMechanics, FullMaskSaturatesAtSixtyFour) {
  Msbfs program;
  program.width = 64;
  EXPECT_EQ(program.full_mask(), ~std::uint64_t{0});
  program.width = 1;
  EXPECT_EQ(program.full_mask(), 1u);
}

TEST(MultiBfsMechanics, GatherFoldsFreshBitsAndSetsLevels) {
  Msbfs program;
  program.width = 4;

  Msbfs::State s{};
  // Round-1 update brings queries {0, 2}.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0101}, s));
  EXPECT_EQ(s.seen, 0b0101u);
  EXPECT_EQ(s.frontier, 0b0101u);
  EXPECT_EQ(s.mark, 1u);

  // Same round, another update: bit 1 is fresh, bit 0 is not.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0011}, s));
  EXPECT_EQ(s.seen, 0b0111u);
  EXPECT_EQ(s.frontier, 0b0111u);
  // After the round's gather the frontier is exactly the bits that
  // arrived at level `mark`: the arrival record carries all three.
  EXPECT_TRUE(same_update(program.arrival(3, s),
                          {.dst = 3, .level = 1, .mask = 0b0111}));

  // Duplicate delivery is a no-op (idempotent gather) and must not
  // touch the state at all — direction equivalence depends on it.
  const Msbfs::State before = s;
  EXPECT_FALSE(program.gather({.dst = 3, .level = 1, .mask = 0b0111}, s));
  EXPECT_EQ(std::memcmp(&before, &s, sizeof(s)), 0);
}

TEST(MultiBfsMechanics, NewRoundClearsTheStaleFrontier) {
  Msbfs program;
  program.width = 4;
  Msbfs::State s{};
  ASSERT_TRUE(program.gather({.dst = 3, .level = 1, .mask = 0b0001}, s));
  EXPECT_EQ(s.frontier, 0b0001u);

  // First arrival of round 2 resets frontier to the new arrivals only;
  // seen keeps accumulating, and the round-2 arrival record names only
  // the new query.
  EXPECT_TRUE(program.gather({.dst = 3, .level = 2, .mask = 0b1000}, s));
  EXPECT_EQ(s.frontier, 0b1000u);
  EXPECT_EQ(s.seen, 0b1001u);
  EXPECT_EQ(s.mark, 2u);
  EXPECT_TRUE(same_update(program.arrival(3, s),
                          {.dst = 3, .level = 2, .mask = 0b1000}));

  // A redundant later-round update with no fresh bits must NOT clear
  // the frontier (the early-out precedes the mark check).
  EXPECT_FALSE(program.gather({.dst = 3, .level = 3, .mask = 0b1001}, s));
  EXPECT_EQ(s.frontier, 0b1000u);
  EXPECT_EQ(s.mark, 2u);
}

TEST(MultiBfsMechanics, ScatterAndPullCarryTheFrontierMask) {
  Msbfs program;
  program.width = 2;
  Msbfs::State src{};
  src.frontier = 0b10;
  src.mark = 4;
  Msbfs::Update u;
  ASSERT_TRUE(program.scatter({.src = 1, .dst = 2}, src, u));
  EXPECT_EQ(u.dst, 2u);
  EXPECT_EQ(u.level, 5u);
  EXPECT_EQ(u.mask, 0b10u);

  // pull_masked reconstructs the same update from the round number and
  // the caller-restricted mask; an empty mask declines.
  Msbfs::Update pulled;
  ASSERT_TRUE(program.pull_masked({.src = 1, .dst = 2}, 4, 0b10, pulled));
  EXPECT_EQ(std::memcmp(&pulled, &u, sizeof(u)), 0);
  EXPECT_FALSE(program.pull_masked({.src = 1, .dst = 2}, 4, 0, pulled));
}

TEST(MultiBfsSieve, DominatesIsMaskSubsetAndMergeIsOr) {
  Msbfs program;
  program.width = 8;
  const Msbfs::Update champ{.dst = 2, .level = 3, .mask = 0b0110};
  // Subset of the champion's mask at the same level: redundant.
  EXPECT_TRUE(program.dominates(champ, {.dst = 2, .level = 3, .mask = 0b0100}));
  // New bits: not dominated.
  EXPECT_FALSE(
      program.dominates(champ, {.dst = 2, .level = 3, .mask = 0b1000}));
  // An earlier-level update is never dominated by a later one.
  EXPECT_FALSE(
      program.dominates(champ, {.dst = 2, .level = 2, .mask = 0b0110}));

  Msbfs::Update merged = champ;
  program.sieve_merge(merged, {.dst = 2, .level = 3, .mask = 0b1001});
  EXPECT_EQ(merged.mask, 0b1111u);
  EXPECT_EQ(merged.level, 3u);
}

TEST(MultiBfsMechanics, ArrivalLogReplaysToPerQueryLevels) {
  Msbfs program;
  program.width = 3;
  program.roots = {0, 2, 0};
  // A hand-built log: the roots at level 0, then each round's
  // activations in id order carrying the bits that first arrived.
  const std::vector<Msbfs::Update> log = {
      {.dst = 0, .level = 0, .mask = 0b101},
      {.dst = 2, .level = 0, .mask = 0b010},
      {.dst = 1, .level = 1, .mask = 0b111},
      {.dst = 3, .level = 1, .mask = 0b010},
      {.dst = 3, .level = 2, .mask = 0b101},
      {.dst = 0, .level = 3, .mask = 0b010},
  };
  const std::vector<std::vector<BfsProgram::State>> q =
      program.replay(log, 5);
  ASSERT_EQ(q.size(), 3u);
  const std::uint32_t u = kUnreachedLevel;
  const std::vector<std::vector<std::uint32_t>> want = {
      {0, 1, u, 2, u}, {3, 1, 0, 1, u}, {0, 1, u, 2, u}};
  for (std::uint32_t b = 0; b < 3; ++b) {
    ASSERT_EQ(q[b].size(), 5u);
    for (std::uint32_t v = 0; v < 5; ++v) {
      EXPECT_EQ(q[b][v].level, want[b][v]) << "query " << b << " vertex " << v;
    }
  }
  // An empty log leaves every query unreached everywhere.
  for (const auto& column : program.replay({}, 2)) {
    EXPECT_EQ(column[0].level, u);
    EXPECT_EQ(column[1].level, u);
  }
}

// ------------------------------------------------- batch front door

struct TestGraph {
  std::string name;
  graph::GraphMeta meta;
  graph::PartitionedGraph pg;
  std::vector<VertexId> sources;  // 64 deterministic picks
  // reference[i] = inmem BFS-from-sources[i] states.
  std::vector<std::vector<BfsProgram::State>> reference;
};

TestGraph make_test_graph(io::Device& dev, const io::StoragePlan& plan,
                          const std::string& name,
                          const graph::ChunkedEdgeSource& source) {
  TestGraph g;
  g.name = name;
  g.meta = graph::write_generated(
      dev, name, source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  g.pg = graph::partition_edge_list(plan, g.meta, 4);
  const std::uint64_t n = g.meta.num_vertices;
  for (std::uint32_t i = 0; i < graph::kMaxBatchQueries; ++i) {
    g.sources.push_back(static_cast<VertexId>((i * 37 + 1) % n));
  }
  for (const VertexId s : g.sources) {
    g.reference.push_back(
        engine::run(Kind::kInmem, g.pg, plan, BfsProgram{.root = s}).states);
  }
  return g;
}

/// Query i must have run from g.sources[i % 64].
void expect_queries_match(const TestGraph& g,
                          const engine::BatchRunResult& batch,
                          std::size_t count) {
  ASSERT_EQ(batch.per_query.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = i % g.sources.size();
    SCOPED_TRACE("query " + std::to_string(i) + " root " +
                 std::to_string(g.sources[k]));
    const auto& got = batch.per_query[i];
    const auto& want = g.reference[k];
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(BfsProgram::State)),
              0);
  }
}

// The acceptance matrix. One fixture builds the three graph shapes
// once; each test point packs B sources and memcmps every query
// against its standalone inmem run.
class BatchEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("msbfs_equiv");
    dev_ = new io::Device(dir_->str(), io::DeviceModel::unthrottled());
    plan_ = new io::StoragePlan(io::StoragePlan::single(*dev_));
    graphs_ = new std::vector<TestGraph>();
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "rmat",
        graph::RmatSource({.scale = 8, .edge_factor = 8, .seed = 11})));
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "er",
        graph::ErdosRenyiSource(
            {.num_vertices = 400, .num_edges = 2400, .seed = 23})));
    graphs_->push_back(make_test_graph(
        *dev_, *plan_, "grid",
        graph::Grid2dSource({.width = 18, .height = 18})));
  }
  static void TearDownTestSuite() {
    delete graphs_;
    graphs_ = nullptr;
    delete plan_;
    plan_ = nullptr;
    delete dev_;
    dev_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static io::Device* dev_;
  static io::StoragePlan* plan_;
  static std::vector<TestGraph>* graphs_;
};

TempDir* BatchEquivalence::dir_ = nullptr;
io::Device* BatchEquivalence::dev_ = nullptr;
io::StoragePlan* BatchEquivalence::plan_ = nullptr;
std::vector<TestGraph>* BatchEquivalence::graphs_ = nullptr;

engine::Options matrix_options(
    std::uint32_t threads, bool trim, Direction direction,
    std::uint64_t budget = engine::Options{}.memory_budget_bytes) {
  engine::Options options;
  options.num_threads = threads;
  options.memory_budget_bytes = budget;
  options.trim = trim;
  options.direction = direction;
  // T > 1 cuts scans into 1 KiB (128-edge) units, so the workers retire
  // many units of one partition concurrently.
  if (threads > 1) options.reader.buffer_bytes = 1024;
  // Sieve + codec auto on throughout: the matrix must hold with the
  // mask-subset sieve and whatever format the codec picks.
  options.sieve_updates = true;
  options.update_codec = io::codec::Policy::kAuto;
  return options;
}

/// The memory-budget axis of the matrices: every state and update file
/// on the device; exactly the states resident, so every update blob
/// spills; the default. The matrices rotate it over their cells by the
/// sum of the cell's axis indices mod 3, so every budget meets every
/// graph, width, thread count, trim setting and direction, and no
/// matrix grows.
std::uint64_t rotated_budget(const TestGraph& g, std::size_t index_sum) {
  const std::uint64_t budgets[] = {0,
                                   g.meta.num_vertices * sizeof(Msbfs::State),
                                   engine::Options{}.memory_budget_bytes};
  return budgets[index_sum % 3];
}

constexpr std::uint32_t kWidths[] = {1, 7, 64};
constexpr std::uint32_t kThreadCounts[] = {1, 4};
constexpr Direction kDirections[] = {Direction::kTopDown, Direction::kBottomUp,
                                     Direction::kAuto};

TEST_F(BatchEquivalence, XstreamMatchesPerQueryInmemRuns) {
  for (std::size_t gi = 0; gi < graphs_->size(); ++gi) {
    const TestGraph& g = (*graphs_)[gi];
    for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
      const std::uint32_t width = kWidths[wi];
      for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
        const std::uint32_t threads = kThreadCounts[ti];
        const std::uint64_t budget = rotated_budget(g, gi + wi + ti);
        SCOPED_TRACE(g.name + " B=" + std::to_string(width) +
                     " threads=" + std::to_string(threads) +
                     " budget=" + std::to_string(budget));
        const engine::BatchRunResult batch = engine::run_batch(
            Kind::kXstream, g.pg, *plan_,
            std::span<const VertexId>(g.sources.data(), width),
            matrix_options(threads, /*trim=*/false, Direction::kTopDown,
                           budget));
        expect_queries_match(g, batch, width);
      }
    }
  }
}

TEST_F(BatchEquivalence, CoreMatchesAcrossThreadsTrimAndDirection) {
  for (std::size_t gi = 0; gi < graphs_->size(); ++gi) {
    const TestGraph& g = (*graphs_)[gi];
    for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
      const std::uint32_t width = kWidths[wi];
      for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
        const std::uint32_t threads = kThreadCounts[ti];
        for (const bool trim : {false, true}) {
          for (std::size_t di = 0; di < std::size(kDirections); ++di) {
            const Direction direction = kDirections[di];
            const std::uint64_t budget =
                rotated_budget(g, gi + wi + ti + (trim ? 1 : 0) + di);
            SCOPED_TRACE(g.name + " B=" + std::to_string(width) +
                         " threads=" + std::to_string(threads) +
                         " trim=" + std::to_string(trim) + " dir=" +
                         engine::to_string(direction) +
                         " budget=" + std::to_string(budget));
            const engine::BatchRunResult batch = engine::run_batch(
                Kind::kCore, g.pg, *plan_,
                std::span<const VertexId>(g.sources.data(), width),
                matrix_options(threads, trim, direction, budget));
            expect_queries_match(g, batch, width);
          }
        }
      }
    }
  }
}

// The arrival log is part of the engines' bit-identity contract: the
// same records in the same order from inmem, xstream and core, at one
// and four threads, with core trimming and flipping direction.
TEST_F(BatchEquivalence, ArrivalLogIsIdenticalAcrossEnginesAndThreads) {
  for (const TestGraph& g : *graphs_) {
    Msbfs program;
    program.width = graph::kMaxBatchQueries;
    for (std::uint32_t b = 0; b < program.width; ++b) {
      program.roots[b] = g.sources[b];
    }
    const std::vector<Msbfs::Update> want =
        engine::run(Kind::kInmem, g.pg, *plan_, program).arrivals;
    // Init logs the distinct roots first, at level 0.
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(want.front().level, 0u);
    for (const Kind kind : {Kind::kXstream, Kind::kCore}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(g.name + " " + engine::to_string(kind) +
                     " threads=" + std::to_string(threads));
        const std::vector<Msbfs::Update> got =
            engine::run(kind, g.pg, *plan_, program,
                        matrix_options(threads, /*trim=*/true,
                                       Direction::kAuto))
                .arrivals;
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(Msbfs::Update)),
                  0);
      }
    }
  }
}

// The state device's write budget: init writes every state once, and
// each counted round rewrites at most every partition's state file —
// 24 bytes per vertex plus one codec header per file, nothing per query.
TEST(BatchStateBytes, RunBatchWritesAtMostOneStatePassPerRound) {
  TempDir dir("msbfs_state_bytes");
  io::Device edges(dir.str() + "/edges", io::DeviceModel::unthrottled());
  io::Device state(dir.str() + "/state", io::DeviceModel::unthrottled());
  const io::StoragePlan plan =
      io::StoragePlan::single(edges).assign(io::Role::kState, state);
  const graph::RmatSource source({.scale = 8, .edge_factor = 8, .seed = 11});
  const graph::GraphMeta meta = graph::write_generated(
      edges, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  constexpr std::uint32_t kPartitions = 4;
  const graph::PartitionedGraph pg =
      graph::partition_edge_list(plan, meta, kPartitions);
  std::vector<VertexId> sources;
  for (std::uint32_t i = 0; i < graph::kMaxBatchQueries; ++i) {
    sources.push_back(static_cast<VertexId>((i * 37 + 1) % meta.num_vertices));
  }

  const std::uint64_t before = state.stats().bytes_written();
  // Budget 0: every state pass goes to the device.
  const engine::BatchRunResult batch = engine::run_batch(
      Kind::kCore, pg, plan, sources,
      matrix_options(/*threads=*/1, /*trim=*/true, Direction::kAuto,
                     /*budget=*/0));
  const std::uint64_t written = state.stats().bytes_written() - before;
  ASSERT_EQ(batch.traversals.size(), 1u);
  const std::uint64_t pass =
      meta.num_vertices * 24 + kPartitions * io::codec::kHeaderBytes;
  EXPECT_GT(written, 0u);
  EXPECT_LE(written, (1 + batch.traversals[0].iterations) * pass);
}

TEST_F(BatchEquivalence, WideSourceListsSplitAcrossTraversals) {
  const TestGraph& g = (*graphs_)[0];
  // The fixture's 64 sources twice, then its first 2: ceil(130/64) = 3
  // runs, source order preserved across the splits, and every repeated
  // source gets its own query.
  std::vector<VertexId> sources;
  for (std::size_t i = 0; i < 130; ++i) {
    sources.push_back(g.sources[i % g.sources.size()]);
  }
  const engine::BatchRunResult batch = engine::run_batch(
      Kind::kCore, g.pg, *plan_, sources,
      matrix_options(/*threads=*/1, /*trim=*/true, Direction::kTopDown));
  EXPECT_EQ(batch.traversals.size(), 3u);
  expect_queries_match(g, batch, sources.size());
}

}  // namespace
}  // namespace fbfs
