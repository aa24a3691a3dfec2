// The direction-strategy suite (ROADMAP item 4): the cost model is a
// pure function pinned against hand-computed byte counts, and the
// engine-level matrix direction x threads x trim must stay BIT-IDENTICAL
// to the in-memory reference. Bottom-up runs may legitimately finish one
// counted round earlier than the reference: the reference's final round
// emits updates to already-visited neighbours (a counted round that
// activates nobody), while bottom-up has nobody left to probe and emits
// nothing (an uncounted round). States must still match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "core/direction.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "inmem/engine.hpp"

namespace fbfs {
namespace {

using core::DirectionCosts;
using core::DirectionInputs;
using engine::Direction;
using graph::BfsProgram;
using graph::GraphMeta;
using graph::VertexId;

// ------------------------------------------------------- cost model

DirectionInputs synthetic_inputs(double frontier_fraction) {
  // A fabricated mid-traversal snapshot: every partition still has work
  // in both modes, half the graph unvisited.
  DirectionInputs in;
  in.num_vertices = 1000;
  in.total_edges = 16000;
  in.frontier = static_cast<std::uint64_t>(frontier_fraction * 1000);
  in.unvisited = 500;
  in.topdown_scan_edges = 16000;
  in.bottomup_scan_edges = 16000;
  in.edge_bytes = 8;
  in.update_bytes = 8;
  return in;
}

TEST(DirectionCostModel, CostsMatchTheModelledFormula) {
  const DirectionInputs in = synthetic_inputs(0.25);
  const DirectionCosts costs = core::model_direction_costs(in);
  // topdown: scan every input edge once, then write+read the update
  // stream the frontier fans out (frontier_fraction x total edges).
  EXPECT_DOUBLE_EQ(costs.frontier_fraction, 0.25);
  EXPECT_DOUBLE_EQ(costs.topdown_bytes, 16000.0 * 8 + 0.25 * 16000 * 16);
  // bottomup: scan the in-edge files, at most one update per unvisited
  // vertex through the same write+read round trip.
  EXPECT_DOUBLE_EQ(costs.bottomup_bytes, 16000.0 * 8 + 500.0 * 16);
}

TEST(DirectionCostModel, ForcedModesPassThrough) {
  const DirectionInputs in = synthetic_inputs(0.5);
  EXPECT_EQ(core::decide_direction(Direction::kTopDown, in, 1.0, 0.1),
            Direction::kTopDown);
  EXPECT_EQ(core::decide_direction(Direction::kBottomUp, in, 1.0, 0.1),
            Direction::kBottomUp);
  // Forced calls still report both costs, so stats stay comparable.
  DirectionCosts costs;
  core::decide_direction(Direction::kTopDown, in, 1.0, 0.1, &costs);
  EXPECT_GT(costs.topdown_bytes, 0.0);
  EXPECT_GT(costs.bottomup_bytes, 0.0);
}

TEST(DirectionCostModel, SyntheticFrontierScheduleFlipsExactlyMidRun) {
  // With the synthetic snapshot above, modelled bytes favour bottom-up
  // for any frontier fraction above 1/32 — so the beta = 0.1 growth
  // gate is what keeps the sliver rounds top-down, and the byte
  // comparison is what flips the bulky ones.
  const struct {
    double fraction;
    Direction want;
  } schedule[] = {
      {0.001, Direction::kTopDown},  // sliver: beta gate
      {0.05, Direction::kTopDown},   // bytes favour bottom-up; beta says no
      {0.25, Direction::kBottomUp},  // bulky frontier: flip
      {0.45, Direction::kBottomUp},
      {0.08, Direction::kTopDown},  // shrinking again: back under beta
      {0.003, Direction::kTopDown},
  };
  for (const auto& round : schedule) {
    DirectionCosts costs;
    EXPECT_EQ(core::decide_direction(Direction::kAuto,
                                     synthetic_inputs(round.fraction), 1.0,
                                     0.1, &costs),
              round.want)
        << "frontier fraction " << round.fraction;
    EXPECT_DOUBLE_EQ(costs.frontier_fraction, round.fraction);
  }
}

TEST(DirectionCostModel, MaskedBatchesGateOnTheMeanPerQueryFraction) {
  // A 64-query batch: 250 frontier VERTICES look dense (0.25 of V), but
  // the masks say each query holds a sliver — 320 total frontier bits
  // over 64 queries is 5 bits per query, 0.005 of V. The beta gate must
  // read the per-query mean and refuse the flip, while the byte terms
  // keep pricing update records by the vertex fraction.
  DirectionInputs in = synthetic_inputs(0.25);
  in.frontier_bits = 320;
  in.active_queries = 64;
  DirectionCosts costs;
  EXPECT_EQ(core::decide_direction(Direction::kAuto, in, 1.0, 0.1, &costs),
            Direction::kTopDown);
  EXPECT_DOUBLE_EQ(costs.frontier_fraction, 320.0 / (1000.0 * 64.0));
  // Byte terms unchanged from the single-query snapshot at the same
  // vertex fraction.
  const DirectionCosts single = core::model_direction_costs(
      synthetic_inputs(0.25));
  EXPECT_DOUBLE_EQ(costs.topdown_bytes, single.topdown_bytes);
  EXPECT_DOUBLE_EQ(costs.bottomup_bytes, single.bottomup_bytes);

  // Saturated masks: every live query holds a quarter of V — now the
  // gate clears and the byte model flips, exactly like a single dense
  // query.
  in.frontier_bits = 250ull * 64;
  EXPECT_EQ(core::decide_direction(Direction::kAuto, in, 1.0, 0.1, &costs),
            Direction::kBottomUp);
  EXPECT_DOUBLE_EQ(costs.frontier_fraction, 0.25);

  // active_queries = 0 (the single-query default) must leave the gate
  // on the vertex fraction even when frontier_bits is stale-nonzero.
  in.active_queries = 0;
  EXPECT_EQ(core::model_direction_costs(in).frontier_fraction, 0.25);
}

TEST(DirectionCostModel, AlphaScalesTheFlipThreshold) {
  // At 0.25 frontier, topdown ~= 192000 bytes vs bottomup ~= 136000:
  // a ratio of ~1.41. alpha above that must refuse the flip.
  const DirectionInputs in = synthetic_inputs(0.25);
  EXPECT_EQ(core::decide_direction(Direction::kAuto, in, 1.0, 0.1),
            Direction::kBottomUp);
  EXPECT_EQ(core::decide_direction(Direction::kAuto, in, 2.0, 0.1),
            Direction::kTopDown);
}

// ------------------------------------------------ engine equivalence

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

constexpr Direction kDirections[] = {Direction::kTopDown,
                                     Direction::kBottomUp, Direction::kAuto};

void expect_direction_matrix(io::Device& dev, const GraphMeta& meta,
                             const BfsProgram& program) {
  const auto reference = inmem::run_graph(dev, meta, program, {});
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 4);
  for (const Direction direction : kDirections) {
    for (const bool trim : {false, true}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string("direction=") + engine::to_string(direction) +
                     ", trim=" + (trim ? "on" : "off") + ", T=" +
                     std::to_string(threads) + " on " + meta.name);
        engine::Options options;
        options.trim = trim;
        options.num_threads = threads;
        options.direction = direction;
        // T > 1 cuts scans into 1 KiB (128-edge) units, so the workers
        // retire many units of one partition concurrently.
        if (threads > 1) options.reader.buffer_bytes = 1024;
        const auto streamed = core::run(pg, plan, program, options);

        // States are the invariant: bit-identical, every cell.
        ASSERT_EQ(streamed.states.size(), reference.states.size());
        ASSERT_EQ(std::memcmp(streamed.states.data(), reference.states.data(),
                              streamed.states.size() *
                                  sizeof(BfsProgram::State)),
                  0);
        if (direction == Direction::kTopDown) {
          ASSERT_EQ(streamed.iterations, reference.iterations);
          ASSERT_EQ(streamed.updates_emitted, reference.updates_emitted);
          ASSERT_EQ(streamed.bottomup_rounds, 0u);
        } else {
          // Bottom-up may skip the reference's no-activation final
          // round (see the file comment) and emits at most one update
          // per claimed vertex, never more than the scatter fan-out.
          ASSERT_GE(streamed.iterations + 1, reference.iterations);
          ASSERT_LE(streamed.iterations, reference.iterations);
          ASSERT_LE(streamed.updates_emitted, reference.updates_emitted);
        }
        if (direction == Direction::kBottomUp) {
          ASSERT_EQ(streamed.bottomup_rounds, streamed.iterations);
        }
      }
    }
  }
}

TEST(DirectionEquivalence, BfsMatrixOnRmat) {
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_direction_matrix(dev, rmat_meta(dev), BfsProgram{.root = 0});
}

TEST(DirectionEquivalence, BfsMatrixOnErdosRenyi) {
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_direction_matrix(dev, er_meta(dev), BfsProgram{.root = 3});
}

TEST(DirectionEquivalence, BfsMatrixOnGrid) {
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_direction_matrix(dev, grid_meta(dev), BfsProgram{.root = 0});
}

TEST(DirectionEquivalence, AutoReducesWorkOnRmat) {
  // The acceptance-criteria shape at test scale: on a low-diameter
  // R-MAT graph, auto must actually flip mid-traversal and come out
  // ahead of pure top-down on both probes and update records.
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 4);

  engine::Options options;
  const auto topdown = core::run(pg, plan, BfsProgram{}, options);
  options.direction = Direction::kAuto;
  const auto automatic = core::run(pg, plan, BfsProgram{}, options);

  ASSERT_EQ(std::memcmp(automatic.states.data(), topdown.states.data(),
                        topdown.states.size() * sizeof(BfsProgram::State)),
            0);
  EXPECT_GT(automatic.bottomup_rounds, 0u);
  std::uint64_t topdown_probed = 0, auto_probed = 0;
  for (const auto& s : topdown.per_iteration) topdown_probed += s.edges_probed;
  for (const auto& s : automatic.per_iteration) auto_probed += s.edges_probed;
  EXPECT_LT(auto_probed, topdown_probed);
  EXPECT_LT(automatic.updates_emitted, topdown.updates_emitted);
}

TEST(DirectionEquivalence, AutoNeverFlipsOnHighDiameterGrid) {
  // The 24x24 lattice's frontier never reaches ~4.2% of the vertices,
  // far under beta = 0.1: the model must keep every round top-down and
  // the run must be indistinguishable from a forced top-down one.
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = grid_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 4);

  engine::Options options;
  const auto topdown = core::run(pg, plan, BfsProgram{}, options);
  options.direction = Direction::kAuto;
  const auto automatic = core::run(pg, plan, BfsProgram{}, options);

  EXPECT_EQ(automatic.bottomup_rounds, 0u);
  EXPECT_EQ(automatic.iterations, topdown.iterations);
  EXPECT_EQ(automatic.updates_emitted, topdown.updates_emitted);
  ASSERT_EQ(std::memcmp(automatic.states.data(), topdown.states.data(),
                        topdown.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(DirectionEquivalence, BottomUpReadsThroughSeekSizedGaps) {
  // ablation_direction's quick graph: R-MAT scale 14, edge factor 16,
  // P = 4, from the highest out-degree vertex. Each transposed partition
  // spans 16 blocks, and bottom-up rounds leave claimed blocks between
  // needed ones. The HDD model reads through gaps of up to 26 blocks;
  // the unthrottled device skips them as before. Only the reads may
  // differ: answers, directions, probes and update files may not.
  TempDir dir("direction");
  io::Device unthrottled(dir.str(), io::DeviceModel::unthrottled());
  const graph::RmatSource source(
      {.scale = 14, .edge_factor = 16, .seed = 20160523});
  std::vector<std::uint32_t> out_degree(source.num_vertices(), 0);
  const GraphMeta meta = graph::write_generated(
      unthrottled, "rmat", source.num_vertices(), source.seed(),
      source.undirected(), [&](const graph::EdgeSink& sink) {
        source.generate([&](const graph::Edge& e) {
          ++out_degree[e.src];
          sink(e);
        });
      });
  const BfsProgram program{.root = static_cast<VertexId>(
      std::max_element(out_degree.begin(), out_degree.end()) -
      out_degree.begin())};
  const auto reference = inmem::run_graph(unthrottled, meta, program, {});
  const graph::PartitionedGraph pg = graph::partition_edge_list(
      io::StoragePlan::single(unthrottled), meta, 4);
  // The same files, priced as a disk (accounting only: no sleeping).
  io::DeviceModel hdd_model = io::DeviceModel::hdd();
  hdd_model.time_scale = 0.0;
  io::Device hdd(dir.str(), hdd_model);

  for (const Direction direction : {Direction::kBottomUp, Direction::kAuto}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      // 64 KiB units hold 2 blocks, so spans split across units.
      for (const std::size_t buffer :
           {io::ReaderOptions{}.buffer_bytes, std::size_t{64} << 10}) {
        SCOPED_TRACE(std::string("direction=") + engine::to_string(direction) +
                     ", T=" + std::to_string(threads) +
                     ", buffer=" + std::to_string(buffer));
        engine::Options options;
        options.direction = direction;
        options.num_threads = threads;
        options.reader.buffer_bytes = buffer;
        const auto on_hdd =
            core::run(pg, io::StoragePlan::single(hdd), program, options);
        const auto on_unthrottled = core::run(
            pg, io::StoragePlan::single(unthrottled), program, options);

        for (const auto* result : {&on_hdd, &on_unthrottled}) {
          ASSERT_EQ(result->states.size(), reference.states.size());
          ASSERT_EQ(std::memcmp(result->states.data(),
                                reference.states.data(),
                                reference.states.size() *
                                    sizeof(BfsProgram::State)),
                    0);
        }
        ASSERT_EQ(on_hdd.per_iteration.size(),
                  on_unthrottled.per_iteration.size());
        std::uint64_t hdd_seeks = 0;
        std::uint64_t unthrottled_seeks = 0;
        for (std::size_t i = 0; i < on_hdd.per_iteration.size(); ++i) {
          const auto& h = on_hdd.per_iteration[i];
          const auto& u = on_unthrottled.per_iteration[i];
          SCOPED_TRACE("round " + std::to_string(i));
          EXPECT_EQ(h.bottomup, u.bottomup);
          EXPECT_EQ(h.updates_emitted, u.updates_emitted);
          EXPECT_EQ(h.edges_probed, u.edges_probed);
          EXPECT_EQ(h.update_codec_bytes, u.update_codec_bytes);
          hdd_seeks += h.role_io(io::Role::kEdges).seeks;
          unthrottled_seeks += u.role_io(io::Role::kEdges).seeks;
        }
        if (direction == Direction::kBottomUp && threads == 1) {
          EXPECT_GT(on_hdd.bottomup_rounds, 0u);
          EXPECT_LT(hdd_seeks, unthrottled_seeks);
        }
      }
    }
  }
}

TEST(DirectionEquivalence, DamagedTransposedIndexRebuildsTheView) {
  // A bottom-up scan skips a transposed block by its cached index entry,
  // so a damaged entry would drop in-edges a destination still needs:
  // narrowed to its first destination, an entry makes the block look
  // claimed once that one vertex is. The `.tmeta` sidecar records the
  // index's digest, so the damage is a cache miss: the view rebuilds
  // and a forced bottom-up BFS matches the in-memory reference.
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = materialize(
      dev, "rmat",
      graph::RmatSource({.scale = 12, .edge_factor = 8, .seed = 7}));
  const BfsProgram program{.root = 0};
  const auto reference = inmem::run_graph(dev, meta, program, {});
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 2);
  const graph::TransposedView view = graph::build_transposed_view(plan, pg);
  std::vector<graph::EdgeBlock> built;
  for (const auto& blocks : view.blocks) {
    built.insert(built.end(), blocks.begin(), blocks.end());
  }

  const std::string index = graph::transposed_index_file(pg);
  const auto read_index = [&] {
    std::vector<graph::EdgeBlock> entries(dev.file_size(index) /
                                          sizeof(graph::EdgeBlock));
    auto file = dev.open(index, /*truncate=*/false);
    const std::uint64_t bytes = entries.size() * sizeof(graph::EdgeBlock);
    EXPECT_EQ(file->read_at(0, entries.data(), bytes), bytes);
    return entries;
  };
  std::vector<graph::EdgeBlock> damaged = read_index();
  ASSERT_EQ(damaged.size(), built.size());
  const std::size_t victim = damaged.size() / 2;
  ASSERT_LT(damaged[victim].first, damaged[victim].last);
  damaged[victim].last = damaged[victim].first;
  dev.open(index, /*truncate=*/false)
      ->write_at(0, damaged.data(), damaged.size() * sizeof(graph::EdgeBlock));

  engine::Options options;
  options.direction = Direction::kBottomUp;
  const auto result = core::run(pg, plan, program, options);
  ASSERT_EQ(result.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                        reference.states.size() * sizeof(BfsProgram::State)),
            0);
  const std::vector<graph::EdgeBlock> rebuilt = read_index();
  ASSERT_EQ(rebuilt.size(), built.size());
  EXPECT_EQ(std::memcmp(rebuilt.data(), built.data(),
                        built.size() * sizeof(graph::EdgeBlock)),
            0);
}

TEST(DirectionEquivalence, TrimTotalsReconcileWithIterationRows) {
  // The run-level trim counters must equal the per-iteration rows plus
  // the end-of-run epilogue row — on the zero-grace config too, where
  // cancellations dominate. (core::run CHECKs this internally; this
  // test keeps the contract visible from the outside.)
  TempDir dir("direction");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 4);
  for (const double grace : {5.0, 0.0}) {
    engine::Options options;
    options.grace_timeout_seconds = grace;
    options.direction = Direction::kAuto;
    const auto result = core::run(pg, plan, BfsProgram{}, options);
    EXPECT_GT(result.trims_started, 0u);
    metrics::IterationStats sum = result.epilogue;
    for (const auto& s : result.per_iteration) {
      sum.trims_started += s.trims_started;
      sum.trims_committed += s.trims_committed;
      sum.trims_cancelled += s.trims_cancelled;
      sum.trims_failed += s.trims_failed;
      sum.stay_edges_written += s.stay_edges_written;
    }
    EXPECT_EQ(sum.trims_started, result.trims_started);
    EXPECT_EQ(sum.trims_committed, result.trims_committed);
    EXPECT_EQ(sum.trims_cancelled, result.trims_cancelled);
    EXPECT_EQ(sum.trims_failed, result.trims_failed);
    EXPECT_EQ(sum.stay_edges_written, result.stay_edges_written);
  }
}

}  // namespace
}  // namespace fbfs
