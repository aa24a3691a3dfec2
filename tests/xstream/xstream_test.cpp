// The X-Stream preset (engine::run with Kind::kXstream): state/update
// files land on the roles the StoragePlan names, partitions with no
// active source are skipped, files are cleaned up (or kept on request),
// its options come from the shared config keys, and the preset really
// is core::run with trimming off and every round top-down, whatever the
// trim and direction options say.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"

namespace fbfs {
namespace {

using core::state_file_name;
using core::update_file_name;
using engine::Kind;
using graph::BfsProgram;
using graph::Edge;
using graph::GraphMeta;
using graph::kUnreachedLevel;
using graph::PartitionedGraph;

GraphMeta chain_graph(io::Device& dev, std::uint64_t n) {
  // 0 -> 1 -> ... -> n-1.
  return graph::write_generated(
      dev, "chain", n, 1, /*undirected=*/false,
      [&](const graph::EdgeSink& sink) {
        for (graph::VertexId v = 0; v + 1 < n; ++v) {
          sink({v, v + 1});
        }
      });
}

TEST(XStream, BfsOnAChainAcrossPartitions) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  const auto result = engine::run(Kind::kXstream, pg, plan,
                                  BfsProgram{.root = 0});
  ASSERT_EQ(result.states.size(), 20u);
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(result.states[v].level, v);
  }
  EXPECT_EQ(result.iterations, 19u);
  EXPECT_EQ(result.updates_emitted, 19u);  // each edge fires exactly once
  EXPECT_EQ(result.per_iteration.size(), result.iterations);
}

TEST(XStream, InactivePartitionsAreNotScattered) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 20);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  const auto result = engine::run(Kind::kXstream, pg, plan,
                                  BfsProgram{.root = 0});
  // A chain BFS has a one-vertex frontier: every round touches exactly
  // the one partition owning it — the skip logic the paper's selective
  // scheduling builds on.
  for (const metrics::IterationStats& stats : result.per_iteration) {
    EXPECT_EQ(stats.partitions_scattered, 1u) << stats.iteration;
    EXPECT_LE(stats.updates_emitted, 1u);
  }
}

TEST(XStream, StoragePlanRoutesStreamsToTheirDevices) {
  TempDir dir("xstream");
  io::Device edges_dev(dir.str() + "/edges", io::DeviceModel::unthrottled());
  io::Device state_dev(dir.str() + "/state", io::DeviceModel::unthrottled());
  io::Device upd_dev(dir.str() + "/upd", io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(edges_dev, 32);
  io::StoragePlan plan = io::StoragePlan::single(edges_dev);
  plan.assign(io::Role::kState, state_dev);
  plan.assign(io::Role::kUpdates, upd_dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 3);

  engine::Options options;
  options.keep_files = true;
  options.memory_budget_bytes = 0;  // every state file on the state device
  const io::IoStatsSnapshot edges_before = edges_dev.stats().snapshot();
  const auto result = engine::run(Kind::kXstream, pg, plan,
                                  BfsProgram{.root = 0}, options);
  EXPECT_EQ(result.states.back().level, 31u);

  // Each stream only touched its own device.
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(state_dev.exists(state_file_name(pg, p)));
    EXPECT_TRUE(upd_dev.exists(update_file_name(pg, p)));
    EXPECT_FALSE(edges_dev.exists(state_file_name(pg, p)));
    EXPECT_FALSE(edges_dev.exists(update_file_name(pg, p)));
  }
  EXPECT_GT(state_dev.stats().bytes_written(), 0u);
  EXPECT_GT(upd_dev.stats().bytes_written(), 0u);
  // No run stream landed on the edge device, and no edge stream was
  // read off the state device: the state-free scatter leaves the state
  // device reading each file exactly as often as it writes it (gather
  // reads what it writes back; the final collect reads what init wrote).
  EXPECT_EQ(edges_dev.stats().snapshot().delta(edges_before).bytes_written,
            0u);
  EXPECT_EQ(state_dev.stats().bytes_read(), state_dev.stats().bytes_written());
}

TEST(XStream, FilesAreRemovedByDefault) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = chain_graph(dev, 12);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);
  engine::Options options;
  options.memory_budget_bytes = 0;  // the run writes its state files
  (void)engine::run(Kind::kXstream, pg, plan, BfsProgram{.root = 0}, options);
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(dev.exists(state_file_name(pg, p)));
    EXPECT_FALSE(dev.exists(update_file_name(pg, p)));
  }
  // The inputs survive.
  EXPECT_TRUE(dev.exists(meta.edge_file()));
  EXPECT_TRUE(dev.exists(pg.partition_file(0)));
}

TEST(XStream, SinglePartitionAndUnreachableVertices) {
  TempDir dir("xstream");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = graph::write_generated(
      dev, "two_islands", 6, 1, /*undirected=*/false,
      [](const graph::EdgeSink& sink) {
        sink({0, 1});
        sink({4, 5});
      });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 1);
  const auto result = engine::run(Kind::kXstream, pg, plan,
                                  BfsProgram{.root = 0});
  EXPECT_EQ(result.states[1].level, 1u);
  EXPECT_EQ(result.states[4].level, kUnreachedLevel);
  EXPECT_EQ(result.states[5].level, kUnreachedLevel);
}

TEST(XStream, EngineOptionsComeFromConfigKeys) {
  // The X-Stream arm has no keys of its own: its options come from the
  // io.*, engine.* and updates.* keys every kind shares.
  const Config cfg = Config::parse_string(
      "io.reader_buffer = 256K\n"
      "engine.write_buffer = 2M\n"
      "engine.max_iterations = 42\n"
      "engine.partition_count = 12\n"
      "engine.num_threads = 3\n"
      "updates.codec = auto\n"
      "updates.sieve = true\n");
  const engine::Options options = engine::options_from_config(cfg);
  EXPECT_EQ(options.reader.buffer_bytes, 256u * 1024);
  EXPECT_EQ(options.write_buffer_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(options.max_iterations, 42u);
  EXPECT_EQ(options.num_threads, 3u);
  EXPECT_EQ(options.update_codec, io::codec::Policy::kAuto);
  EXPECT_TRUE(options.sieve_updates);
  EXPECT_EQ(engine::partition_count_from_config(cfg, 4), 12u);
  EXPECT_EQ(engine::partition_count_from_config(Config(), 4), 4u);
  // Absent keys -> the serial engine writing raw, sieve off.
  const engine::Options defaults = engine::options_from_config(Config());
  EXPECT_EQ(defaults.write_buffer_bytes, std::size_t{1} << 20);
  EXPECT_EQ(defaults.num_threads, 1u);
  EXPECT_EQ(defaults.update_codec, io::codec::Policy::kRaw);
  EXPECT_FALSE(defaults.sieve_updates);
}

std::vector<std::byte> file_bytes(io::Device& dev, const std::string& name) {
  const std::uint64_t size = dev.file_size(name);
  std::vector<std::byte> out(size);
  auto file = dev.open(name, /*truncate=*/false);
  EXPECT_EQ(file->read_at(0, out.data(), out.size()), out.size());
  return out;
}

TEST(XStream, UpdateShuffleIsByteIdenticalAcrossThreadCounts) {
  // The deterministic-shuffle contract, checked on the files themselves
  // rather than the folded states: the update files a scatter phase
  // leaves behind and the final state files must be byte-identical at
  // T=1 and T=4 — the ordered retire makes per-file append order
  // independent of scheduling. The run stops after round 1, which
  // scatters the R-MAT hub's neighbours, so its update files are the
  // run's largest. 1 KiB reader buffers cut each scan into 128-edge
  // units, so the workers retire many units of one partition
  // concurrently.
  TempDir dir("xstream");
  io::Device t1_dev(dir.str() + "/t1", io::DeviceModel::unthrottled());
  io::Device t4_dev(dir.str() + "/t4", io::DeviceModel::unthrottled());
  const graph::RmatSource source({.scale = 8, .edge_factor = 8, .seed = 5});
  std::vector<PartitionedGraph> pgs;
  for (io::Device* dev : {&t1_dev, &t4_dev}) {
    const GraphMeta meta = graph::write_generated(
        *dev, "rmat", source.num_vertices(), source.seed(),
        source.undirected(),
        [&](const graph::EdgeSink& sink) { source.generate(sink); });
    pgs.push_back(
        partition_edge_list(io::StoragePlan::single(*dev), meta, 3));
  }

  const BfsProgram program{.root = 0};
  engine::Options options;
  options.keep_files = true;
  options.max_iterations = 2;
  options.reader.buffer_bytes = 1024;
  options.memory_budget_bytes = 0;  // the files are the subject
  options.num_threads = 1;
  const auto serial = engine::run(Kind::kXstream, pgs[0],
                                  io::StoragePlan::single(t1_dev), program,
                                  options);
  options.num_threads = 4;
  const auto threaded = engine::run(Kind::kXstream, pgs[1],
                                    io::StoragePlan::single(t4_dev), program,
                                    options);

  ASSERT_EQ(serial.iterations, 2u);
  ASSERT_EQ(threaded.iterations, 2u);
  ASSERT_EQ(serial.updates_emitted, threaded.updates_emitted);
  std::size_t update_bytes = 0;
  for (std::uint32_t p = 0; p < 3; ++p) {
    const std::vector<std::byte> updates =
        file_bytes(t1_dev, update_file_name(pgs[0], p));
    update_bytes += updates.size();
    EXPECT_EQ(updates, file_bytes(t4_dev, update_file_name(pgs[1], p)))
        << "update file " << p;
    EXPECT_EQ(file_bytes(t1_dev, state_file_name(pgs[0], p)),
              file_bytes(t4_dev, state_file_name(pgs[1], p)))
        << "state file " << p;
  }
  // The comparison must cover real shuffles, not near-empty files.
  EXPECT_GT(update_bytes, 8u * 1024);
}

TEST(XStream, PresetIgnoresTrimAndDirection) {
  // The preset contract: handed FastBFS's full stack (eager trimming,
  // direction auto), Kind::kXstream starts no trim, runs no bottom-up
  // round, never touches the stay device, and leaves exactly the state
  // and update files core::run writes with trimming off. Kind::kCore
  // with the same options shows both mechanisms really fire here.
  struct Rig {
    TempDir dir{"xstream"};
    io::Device edges{dir.str() + "/edges", io::DeviceModel::unthrottled()};
    io::Device state{dir.str() + "/state", io::DeviceModel::unthrottled()};
    io::Device updates{dir.str() + "/updates",
                       io::DeviceModel::unthrottled()};
    io::Device stay{dir.str() + "/stay", io::DeviceModel::unthrottled()};
    io::StoragePlan plan = io::StoragePlan::single(edges)
                               .assign(io::Role::kState, state)
                               .assign(io::Role::kUpdates, updates)
                               .assign(io::Role::kStay, stay);
    PartitionedGraph pg;

    Rig() {
      const graph::RmatSource source({.scale = 9, .edge_factor = 8,
                                      .seed = 7});
      const GraphMeta meta = graph::write_generated(
          edges, "rmat", source.num_vertices(), source.seed(),
          source.undirected(),
          [&](const graph::EdgeSink& sink) { source.generate(sink); });
      pg = partition_edge_list(plan, meta, 4);
    }
  };

  engine::Options full_stack;
  full_stack.trim = true;
  full_stack.direction = engine::Direction::kAuto;
  full_stack.keep_files = true;
  full_stack.max_iterations = 3;  // stop with update files still on disk
  full_stack.memory_budget_bytes = 0;  // and every state file

  Rig core_rig;
  const auto fastbfs = engine::run(Kind::kCore, core_rig.pg, core_rig.plan,
                                   BfsProgram{}, full_stack);
  ASSERT_GT(fastbfs.trims_started, 0u);
  ASSERT_GT(fastbfs.bottomup_rounds, 0u);

  Rig xs_rig;
  const auto xstream = engine::run(Kind::kXstream, xs_rig.pg, xs_rig.plan,
                                   BfsProgram{}, full_stack);
  EXPECT_EQ(xstream.trims_started, 0u);
  EXPECT_EQ(xstream.bottomup_rounds, 0u);
  EXPECT_EQ(xs_rig.stay.stats().bytes_written(), 0u);

  Rig untrimmed_rig;
  engine::Options untrimmed;
  untrimmed.trim = false;
  untrimmed.keep_files = true;
  untrimmed.max_iterations = 3;
  untrimmed.memory_budget_bytes = 0;
  const auto baseline = core::run(untrimmed_rig.pg, untrimmed_rig.plan,
                                  BfsProgram{}, untrimmed);
  ASSERT_EQ(xstream.iterations, baseline.iterations);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(file_bytes(xs_rig.updates, update_file_name(xs_rig.pg, p)),
              file_bytes(untrimmed_rig.updates,
                         update_file_name(untrimmed_rig.pg, p)))
        << "update file " << p;
    EXPECT_EQ(file_bytes(xs_rig.state, state_file_name(xs_rig.pg, p)),
              file_bytes(untrimmed_rig.state,
                         state_file_name(untrimmed_rig.pg, p)))
        << "state file " << p;
  }
}

}  // namespace
}  // namespace fbfs
