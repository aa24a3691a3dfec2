// The unified engine surface (engine/types.hpp + engine/api.hpp): name
// round-trips, the one spelling of every config key, the 32-bit keys'
// range check, and the Kind dispatch helper producing bit-identical
// states from every kind.
#include "engine/api.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/temp_dir.hpp"
#include "graph/generators.hpp"

namespace fbfs {
namespace {

using engine::Direction;
using engine::Kind;
using graph::BfsProgram;
using graph::GraphMeta;

TEST(EngineNames, KindRoundTripsAndAcceptsTheFastbfsAlias) {
  for (const Kind kind : {Kind::kInmem, Kind::kXstream, Kind::kCore}) {
    EXPECT_EQ(engine::parse_kind(engine::to_string(kind)), kind);
  }
  EXPECT_EQ(engine::parse_kind("fastbfs"), Kind::kCore);
}

TEST(EngineNames, DirectionRoundTrips) {
  for (const Direction d :
       {Direction::kTopDown, Direction::kBottomUp, Direction::kAuto}) {
    EXPECT_EQ(engine::parse_direction(engine::to_string(d)), d);
  }
}

TEST(EngineOptions, SharedKeysResolveUnderDocumentedPrecedence) {
  // engine.key beats the built-in default, and engine.* is the only
  // spelling of the shared keys: the per-kind spellings and the retired
  // knobs' keys are not read at all.
  const Config config = Config::parse_string(
      "engine.write_buffer = 128K\n"
      "engine.max_iterations = 9\n"
      "engine.partition_count = 3\n"
      "xstream.write_buffer = 64K\n"
      "xstream.max_iterations = 5\n"
      "xstream.partition_count = 12\n"
      "core.write_buffer = 32K\n"
      "core.max_iterations = 7\n"
      "core.partition_count = 6\n"
      "core.selective = false\n"
      "core.stay_pool_buffers = 8\n"
      "core.stay_buffer = 4K\n"
      "core.direction_alpha = 1.5\n"
      "core.direction_beta = 0.05\n"
      "io.reader = prefetch\n"
      "io.prefetch_depth = 8\n");
  const engine::Options opts = engine::options_from_config(config);
  EXPECT_EQ(opts.reader.buffer_bytes, io::ReaderOptions{}.buffer_bytes);
  EXPECT_EQ(opts.write_buffer_bytes, 128u * 1024);
  EXPECT_EQ(opts.max_iterations, 9u);
  EXPECT_EQ(engine::partition_count_from_config(config, 2), 3u);
  // Only per-kind spellings set: the built-in defaults apply.
  const Config per_kind_only = Config::parse_string(
      "xstream.write_buffer = 64K\n"
      "core.max_iterations = 7\n"
      "core.partition_count = 6\n");
  const engine::Options defaults = engine::options_from_config(per_kind_only);
  const engine::Options builtin = engine::options_from_config(Config{});
  EXPECT_EQ(defaults.write_buffer_bytes, builtin.write_buffer_bytes);
  EXPECT_EQ(defaults.max_iterations, builtin.max_iterations);
  EXPECT_EQ(engine::partition_count_from_config(per_kind_only, 2), 2u);
  EXPECT_EQ(engine::partition_count_from_config(Config{}, 2), 2u);
}

TEST(EngineOptionsDeath, ThirtyTwoBitKeysRejectWideValues) {
  // The 32-bit keys must not truncate: 2^32 iterations would read as a
  // zero cap, which returns the init states as the answer.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const std::string key :
       {"engine.max_iterations", "core.trim_start_round"}) {
    const Config config = Config::parse_string(key + " = 4294967296\n");
    EXPECT_DEATH(engine::options_from_config(config), key);
  }
  const Config wide_partitions =
      Config::parse_string("engine.partition_count = 4294967296\n");
  EXPECT_DEATH(engine::partition_count_from_config(wide_partitions, 2),
               "engine.partition_count");
  // The widest 32-bit value still parses.
  EXPECT_EQ(engine::options_from_config(
                Config::parse_string("engine.max_iterations = 4294967295\n"))
                .max_iterations,
            4294967295u);
}

TEST(EngineConfig, DirectionKeyParses) {
  const engine::Options automatic = engine::options_from_config(
      Config::parse_string("core.direction = auto\n"));
  EXPECT_EQ(automatic.direction, Direction::kAuto);
  // Default: forced top-down (kAuto's alpha/beta gates are constants,
  // pinned in direction_test).
  EXPECT_EQ(engine::options_from_config({}).direction, Direction::kTopDown);
}

TEST(EngineDispatch, AllThreeKindsProduceBitIdenticalStates) {
  TempDir dir("engine_api");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const graph::ErdosRenyiSource source(
      {.num_vertices = 500, .num_edges = 4000, .seed = 13});
  const GraphMeta meta = graph::write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  const BfsProgram program{.root = 1};
  const auto reference = engine::run(Kind::kInmem, pg, plan, program);
  for (const Kind kind : {Kind::kXstream, Kind::kCore}) {
    SCOPED_TRACE(engine::to_string(kind));
    const auto result = engine::run(kind, pg, plan, program);
    ASSERT_EQ(result.states.size(), reference.states.size());
    ASSERT_EQ(result.iterations, reference.iterations);
    ASSERT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                          result.states.size() * sizeof(BfsProgram::State)),
              0);
  }
}

}  // namespace
}  // namespace fbfs
