// Mechanics of the FastBFS engine: trim life cycle (stream → grace →
// swap/cancel), trim triggers, selective scheduling, the state-free
// top-down scatter, the edge-free init, the scan's misfiled-edge,
// block-index and file-size checks, fault fallback, config plumbing,
// file hygiene, what the memory budget keeps off the devices, and the
// block-skipping top-down scan (same files and states with or without
// the partition block index).
// Bit-identity against the reference engine across the full matrix
// lives in core_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"

namespace fbfs {
namespace {

using graph::BfsProgram;
using graph::GraphMeta;
using graph::PartitionedGraph;
using graph::partition_edge_list;

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

GraphMeta rmat_graph(io::Device& dev, std::uint32_t scale = 9,
                     std::uint32_t edge_factor = 8) {
  const graph::RmatSource source(
      {.scale = scale, .edge_factor = edge_factor, .seed = 7});
  return graph::write_generated(
      dev, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
}

/// BFS that arms one read fault on `device` from inside round `round`'s
/// scan: the scan's next read of that device throws.
struct ReadFaultBfs : BfsProgram {
  io::Device* device = nullptr;
  std::uint32_t round = 0;
  std::atomic<bool>* armed = nullptr;

  bool pull(const graph::Edge& e, std::uint32_t r, Update& out) const {
    if (r == round && !armed->exchange(true)) device->inject_read_faults(1);
    return BfsProgram::pull(e, r, out);
  }
};
static_assert(graph::GraphProgram<ReadFaultBfs>);

/// Threads of this process: one task entry each. A sanitizer runtime
/// may start a helper thread with the first thread the process
/// creates, so the count is taken after one thread has come and gone.
std::size_t thread_count() {
  std::thread([] {}).join();
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

/// Four devices, one per role — byte attribution is exact for all of
/// them (StoragePlan::dedicated).
struct DedicatedRig {
  TempDir dir;
  io::Device edges, state, updates, stay;
  io::StoragePlan plan;

  explicit DedicatedRig(const io::DeviceModel& model =
                            io::DeviceModel::unthrottled())
      : dir("core"),
        edges(dir.str() + "/edges", model),
        state(dir.str() + "/state", model),
        updates(dir.str() + "/updates", model),
        stay(dir.str() + "/stay", model),
        plan(io::StoragePlan::single(edges)
                 .assign(io::Role::kState, state)
                 .assign(io::Role::kUpdates, updates)
                 .assign(io::Role::kStay, stay)) {}
};

/// A file's bytes, or none when the file does not exist.
std::vector<std::byte> read_file(io::Device& dev, const std::string& name) {
  std::vector<std::byte> bytes;
  if (dev.exists(name)) {
    bytes.resize(dev.file_size(name));
    auto file = dev.open(name, /*truncate=*/false);
    EXPECT_EQ(file->read_at(0, bytes.data(), bytes.size()), bytes.size());
  }
  return bytes;
}

std::uint64_t edge_input_bytes_read(
    const std::vector<metrics::IterationStats>& rounds) {
  std::uint64_t total = 0;
  for (const auto& r : rounds) {
    total += r.role_io(io::Role::kEdges).bytes_read +
             r.role_io(io::Role::kStay).bytes_read;
  }
  return total;
}

TEST(CoreEngine, OptionsComeFromConfigKeys) {
  // The FastBFS knobs under their core.* keys, beside the engine.*,
  // io.* and updates.* keys every kind shares.
  const Config config = Config::parse_string(
      "engine.write_buffer = 256K\n"
      "engine.max_iterations = 12\n"
      "core.trim = false\n"
      "core.trim_start_round = 3\n"
      "core.trim_min_frontier_fraction = 0.25\n"
      "core.trim_min_dead_fraction = 0.5\n"
      "core.grace_timeout = 1.5\n"
      "core.direction = auto\n"
      "engine.partition_count = 6\n"
      "engine.num_threads = 2\n"
      "updates.codec = varint\n"
      "updates.sieve = true\n");

  const engine::Options opts = engine::options_from_config(config);
  EXPECT_EQ(opts.write_buffer_bytes, 256u * 1024);
  EXPECT_EQ(opts.max_iterations, 12u);
  EXPECT_FALSE(opts.trim);
  EXPECT_EQ(opts.trim_start_round, 3u);
  EXPECT_DOUBLE_EQ(opts.trim_min_frontier_fraction, 0.25);
  EXPECT_DOUBLE_EQ(opts.trim_min_dead_fraction, 0.5);
  EXPECT_DOUBLE_EQ(opts.grace_timeout_seconds, 1.5);
  EXPECT_EQ(opts.direction, engine::Direction::kAuto);
  EXPECT_EQ(opts.num_threads, 2u);
  EXPECT_EQ(opts.update_codec, io::codec::Policy::kVarint);
  EXPECT_TRUE(opts.sieve_updates);
  // The stay codec follows the resolved updates.codec unless its own
  // key overrides it.
  EXPECT_EQ(opts.stay_codec, io::codec::Policy::kVarint);
  const engine::Options overridden = engine::options_from_config(
      Config::parse_string("updates.codec = auto\n"
                           "updates.stay_codec = raw\n"));
  EXPECT_EQ(overridden.update_codec, io::codec::Policy::kAuto);
  EXPECT_EQ(overridden.stay_codec, io::codec::Policy::kRaw);
  const engine::Options defaults = engine::options_from_config(Config{});
  EXPECT_EQ(defaults.num_threads, 1u);
  EXPECT_EQ(defaults.update_codec, io::codec::Policy::kRaw);
  EXPECT_EQ(defaults.stay_codec, io::codec::Policy::kRaw);
  EXPECT_TRUE(defaults.trim);
  EXPECT_EQ(defaults.direction, engine::Direction::kTopDown);
  EXPECT_EQ(engine::partition_count_from_config(config, 2), 6u);
  EXPECT_EQ(engine::partition_count_from_config(Config{}, 2), 2u);
}

TEST(CoreEngine, TrimmingCutsEdgeInputBytes) {
  // The paper's headline mechanism: on a BFS over R-MAT, dropping dead
  // edges from the per-partition inputs must shrink the bytes the edge
  // scans read (edges role + stay role, both dedicated here).
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  engine::Options trimmed;
  trimmed.trim = true;
  const auto with_trim = core::run(pg, rig.plan, BfsProgram{}, trimmed);

  engine::Options untrimmed;
  untrimmed.trim = false;
  const auto without = core::run(pg, rig.plan, BfsProgram{}, untrimmed);

  ASSERT_GT(with_trim.trims_started, 0u);
  ASSERT_GT(with_trim.trims_committed, 0u);
  EXPECT_EQ(without.trims_started, 0u);
  EXPECT_LT(edge_input_bytes_read(with_trim.per_iteration),
            edge_input_bytes_read(without.per_iteration));
  // Same answer either way.
  ASSERT_EQ(with_trim.states.size(), without.states.size());
  EXPECT_EQ(std::memcmp(with_trim.states.data(), without.states.data(),
                        with_trim.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, TopDownScatterReadsNoStateForPullablePrograms) {
  // BFS builds its updates from the round number (the pull hook), so a
  // top-down scan never loads the partition's state file: the state
  // device is read only by gather (each partition's file, just before
  // writing it back) and by the final collect (the same bytes the init
  // pass wrote). Reads therefore equal writes, round by round and in
  // total — for FastBFS and for the X-Stream preset alike, which move
  // the same state bytes.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  engine::Options options;
  options.direction = engine::Direction::kTopDown;
  options.memory_budget_bytes = 0;  // the state files are the subject
  std::vector<std::vector<BfsProgram::State>> states;
  std::vector<std::uint64_t> written;
  for (const engine::Kind kind :
       {engine::Kind::kCore, engine::Kind::kXstream}) {
    SCOPED_TRACE(engine::to_string(kind));
    const io::IoStatsSnapshot before = rig.state.stats().snapshot();
    const auto result = engine::run(kind, pg, rig.plan, BfsProgram{}, options);
    const io::IoStatsSnapshot total =
        rig.state.stats().snapshot().delta(before);
    ASSERT_GT(result.iterations, 1u);
    EXPECT_EQ(total.bytes_read, total.bytes_written);
    for (const auto& r : result.per_iteration) {
      EXPECT_EQ(r.role_io(io::Role::kState).bytes_read,
                r.role_io(io::Role::kState).bytes_written)
          << "round " << r.iteration;
    }
    states.push_back(result.states);
    written.push_back(total.bytes_written);
  }
  EXPECT_EQ(written[0], written[1]);
  EXPECT_EQ(std::memcmp(states[0].data(), states[1].data(),
                        states[0].size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, InitReadsNoEdges) {
  // Init only writes each partition's initial states: a run capped at
  // zero rounds reads not one byte off the edge device, yet leaves every
  // state file behind.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  engine::Options options;
  options.max_iterations = 0;
  options.keep_files = true;
  options.memory_budget_bytes = 0;  // the state files are the subject
  const io::IoStatsSnapshot before = rig.edges.stats().snapshot();
  const auto result = core::run(pg, rig.plan, BfsProgram{}, options);
  EXPECT_EQ(rig.edges.stats().snapshot().delta(before).bytes_read, 0u);
  EXPECT_EQ(result.iterations, 0u);
  ASSERT_EQ(result.states.size(), meta.num_vertices);
  EXPECT_EQ(result.states[0].level, 0u);
  EXPECT_GT(rig.state.stats().bytes_written(), 0u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(rig.state.exists(core::state_file_name(pg, p)))
        << "state file " << p;
  }
}

TEST(CoreEngine, TrimTriggersGateEagerTrimming) {
  DedicatedRig rig;
  const GraphMeta meta = chain_graph(rig.edges, 40);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 2);

  // A chain's frontier is one vertex: a 10% frontier gate never opens.
  engine::Options gated;
  gated.trim_min_frontier_fraction = 0.10;
  const auto fraction_gated = core::run(pg, rig.plan, BfsProgram{}, gated);
  EXPECT_EQ(fraction_gated.trims_started, 0u);

  // A start round beyond the run's rounds never trims either.
  engine::Options late;
  late.trim_start_round = 1000;
  const auto started_late = core::run(pg, rig.plan, BfsProgram{}, late);
  EXPECT_EQ(started_late.trims_started, 0u);

  // A dead-fraction threshold waits until a scan has SEEN enough dead
  // edges; partition 0 of the chain accumulates them round by round.
  engine::Options dead_gate;
  dead_gate.trim_min_dead_fraction = 0.5;
  const auto dead_gated = core::run(pg, rig.plan, BfsProgram{}, dead_gate);
  EXPECT_GT(dead_gated.trims_started, 0u);
  EXPECT_EQ(dead_gated.per_iteration.front().trims_started, 0u);
}

TEST(CoreEngine, SelectiveSchedulingSkipsQuietPartitions) {
  DedicatedRig rig;
  const GraphMeta meta = chain_graph(rig.edges, 40);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  const auto result = core::run(pg, rig.plan, BfsProgram{}, {});
  std::uint64_t skipped = 0;
  for (const auto& r : result.per_iteration) skipped += r.partitions_skipped;
  // A chain frontier lives in one partition at a time.
  EXPECT_GT(skipped, 0u);
}

TEST(CoreEngine, StayWriteFaultFallsBackToPreviousInput) {
  // A dying stay disk mid-iteration must auto-cancel the stream, leave
  // the previous input intact, and not change a single output bit.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const auto reference = inmem::run_graph(rig.edges, meta, BfsProgram{});
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
  const std::string part0 = pg.partition_file(0);
  const std::uint64_t part0_bytes = rig.edges.file_size(part0);

  rig.stay.inject_write_faults(1'000'000);
  const auto result = core::run(pg, rig.plan, BfsProgram{}, {});

  EXPECT_GT(result.trims_started, 0u);
  EXPECT_EQ(result.trims_committed, 0u);
  EXPECT_GT(result.trims_failed, 0u);
  // Previous inputs untouched: the partition files still feed the run.
  EXPECT_EQ(rig.edges.file_size(part0), part0_bytes);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(rig.stay.exists(core::stay_file_name(pg, p)));
    EXPECT_FALSE(rig.stay.exists(core::stay_file_name(pg, p) + ".wip"));
  }
  // Bit-identical to the reference despite the degradation.
  ASSERT_EQ(result.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                        result.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, GraceTimeoutCancelsAndFallsBack) {
  // A stay device too slow to commit between consecutive scans of the
  // same partition: with a zero grace the swap is always refused, every
  // trim resolves as cancelled, and the previous input carries the run.
  TempDir dir("core");
  io::DeviceModel crawl;
  crawl.name = "crawl";
  // ~0.8 s modelled per 16 KiB survivor chunk, plus a 1.5 s seek on the
  // first write to every fresh .wip: rounds on the unthrottled main
  // device finish in microseconds, so no stream started in round r can
  // commit before round r+1 resolves it — even when the survivor chunk
  // is tiny and even on a loaded machine.
  crawl.write_mb_s = 0.02;
  crawl.seek_ns = 1'500'000'000;
  io::Device fast(dir.str() + "/main", io::DeviceModel::unthrottled());
  io::Device slow_stay(dir.str() + "/stay", crawl);
  io::StoragePlan plan =
      io::StoragePlan::single(fast).assign(io::Role::kStay, slow_stay);

  const GraphMeta meta = rmat_graph(fast);
  const auto reference = inmem::run_graph(fast, meta, BfsProgram{});
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);

  engine::Options options;
  options.grace_timeout_seconds = 0.0;
  const auto result = core::run(pg, plan, BfsProgram{}, options);

  EXPECT_GT(result.trims_started, 0u);
  EXPECT_GT(result.trims_cancelled, 0u);
  ASSERT_EQ(result.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                        result.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, MultiThreadedForcedCancellationIsBitIdentical) {
  // The case trim-on x multi-thread x forced cancellation: unit
  // workers stage the survivors through the ordered retire, the
  // crawling stay device never commits before the next scan, the zero
  // grace cancels every stream — and the fallback to the previous input
  // still cannot change a bit.
  TempDir dir("core");
  io::DeviceModel crawl;
  crawl.name = "crawl";
  crawl.write_mb_s = 0.02;
  crawl.seek_ns = 1'500'000'000;
  io::Device fast(dir.str() + "/main", io::DeviceModel::unthrottled());
  io::Device slow_stay(dir.str() + "/stay", crawl);
  io::StoragePlan plan =
      io::StoragePlan::single(fast).assign(io::Role::kStay, slow_stay);

  const GraphMeta meta = rmat_graph(fast);
  const auto reference = inmem::run_graph(fast, meta, BfsProgram{});
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);

  engine::Options options;
  options.grace_timeout_seconds = 0.0;
  options.num_threads = 4;
  const auto result = core::run(pg, plan, BfsProgram{}, options);

  EXPECT_GT(result.trims_started, 0u);
  EXPECT_GT(result.trims_cancelled, 0u);
  ASSERT_EQ(result.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                        result.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, MultiThreadedStayWriteFaultFallsBack) {
  // Same dying-stay-disk scenario as above, but with unit workers
  // staging the survivors: the stay handed over at scan end hits the
  // faults, the stream fails, and the outputs stay exact.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const auto reference = inmem::run_graph(rig.edges, meta, BfsProgram{});
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  rig.stay.inject_write_faults(1'000'000);
  engine::Options options;
  options.num_threads = 4;
  const auto result = core::run(pg, rig.plan, BfsProgram{}, options);

  EXPECT_GT(result.trims_started, 0u);
  EXPECT_EQ(result.trims_committed, 0u);
  EXPECT_GT(result.trims_failed, 0u);
  ASSERT_EQ(result.states.size(), reference.states.size());
  EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                        result.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CoreEngine, EdgeReadFaultMidScanEndsInIoError) {
  // An edge-device read error in the middle of a round-2 scan ends the
  // call in io::IoError at every thread count, with trims still in
  // flight: a crawling stay device and a zero grace keep every stay
  // stream pending or cancelled, so the scans read the partition files
  // and the writer holds the streams of the round before. Unwinding
  // joins the stay writer (no .wip is left) and the scan workers.
  TempDir dir("core");
  io::DeviceModel crawl;
  crawl.name = "crawl";
  crawl.write_mb_s = 1.0;
  crawl.seek_ns = 50'000'000;
  io::Device edges(dir.str() + "/edges", io::DeviceModel::unthrottled());
  io::Device stay(dir.str() + "/stay", crawl);
  const io::StoragePlan plan =
      io::StoragePlan::single(edges).assign(io::Role::kStay, stay);
  const GraphMeta meta = rmat_graph(edges);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);
  const std::size_t threads_before = thread_count();

  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    std::atomic<bool> armed{false};
    engine::Options options;
    options.num_threads = threads;
    options.grace_timeout_seconds = 0.0;
    options.reader.buffer_bytes = 1024;  // many reads per partition scan
    const ReadFaultBfs program{{}, &edges, 2, &armed};
    EXPECT_THROW((void)core::run(pg, plan, program, options), io::IoError);
    EXPECT_TRUE(armed.load());
    EXPECT_EQ(edges.pending_read_faults(), 0u);
    EXPECT_EQ(thread_count(), threads_before);
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_FALSE(stay.exists(core::stay_file_name(pg, p) + ".wip"));
    }
  }
}

TEST(CoreEngine, StayFilesAreByteIdenticalAcrossThreadCounts) {
  // The ordered retire's contract checked on the files themselves: with
  // a generous grace every trim commits, and the stay and update files a
  // kept run leaves behind must match byte-for-byte between the serial
  // engine and 4 workers. 1 KiB reader buffers cut each scan into
  // 128-edge units, so the workers retire many units of one partition
  // concurrently. The run stops after three rounds, while its update
  // files still hold updates. The stay codec follows the update codec:
  // the raw arm scans stays positionally, the varint arm decodes them.
  struct Files {
    std::vector<std::vector<std::byte>> stay, updates;
  };
  const auto run_kept = [&](io::codec::Policy codec, std::uint32_t threads,
                            DedicatedRig& rig) {
    const GraphMeta meta = rmat_graph(rig.edges);
    const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 2);
    engine::Options options;
    options.keep_files = true;
    options.max_iterations = 3;
    options.reader.buffer_bytes = 1024;
    options.update_codec = codec;
    options.stay_codec = codec;
    options.sieve_updates = true;
    options.num_threads = threads;
    options.memory_budget_bytes = 0;  // every update file on the device
    const auto result = core::run(pg, rig.plan, BfsProgram{}, options);
    EXPECT_GT(result.trims_committed, 0u);
    Files files;
    for (std::uint32_t p = 0; p < 2; ++p) {
      files.stay.push_back(read_file(rig.stay, core::stay_file_name(pg, p)));
      files.updates.push_back(
          read_file(rig.updates, core::update_file_name(pg, p)));
    }
    return files;
  };
  for (const io::codec::Policy codec :
       {io::codec::Policy::kRaw, io::codec::Policy::kVarint}) {
    SCOPED_TRACE(io::codec::to_string(codec));
    DedicatedRig serial_rig, threaded_rig;
    const Files serial = run_kept(codec, 1, serial_rig);
    const Files threaded = run_kept(codec, 4, threaded_rig);
    for (std::uint32_t p = 0; p < 2; ++p) {
      EXPECT_GT(serial.stay[p].size(), io::codec::kHeaderBytes)
          << "stay file " << p;
      EXPECT_EQ(serial.stay[p], threaded.stay[p]) << "stay file " << p;
      if (codec == io::codec::Policy::kRaw) {
        // Stays are written whole at scan end, so even a raw one
        // carries its exact record count.
        io::codec::FileHeader header;
        ASSERT_GE(serial.stay[p].size(), sizeof(header));
        std::memcpy(&header, serial.stay[p].data(), sizeof(header));
        const std::uint64_t records =
            (serial.stay[p].size() - sizeof(header)) / sizeof(graph::Edge);
        EXPECT_EQ(header.record_count, records) << "stay file " << p;
      }
      EXPECT_GT(serial.updates[p].size(), io::codec::kHeaderBytes)
          << "update file " << p;
      EXPECT_EQ(serial.updates[p], threaded.updates[p]) << "update file " << p;
    }
  }
}

TEST(CoreEngine, CleansUpRunFilesUnlessKept) {
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 2);

  // Budget 0: every run file is on its device, so there is something
  // to clean up (or keep).
  engine::Options scrub;
  scrub.memory_budget_bytes = 0;
  const auto scrubbed = core::run(pg, rig.plan, BfsProgram{}, scrub);
  ASSERT_GT(scrubbed.trims_committed, 0u);
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(rig.state.exists(core::state_file_name(pg, p)));
    EXPECT_FALSE(rig.updates.exists(core::update_file_name(pg, p)));
    EXPECT_FALSE(rig.stay.exists(core::stay_file_name(pg, p)));
  }

  engine::Options keep = scrub;
  keep.keep_files = true;
  const auto kept = core::run(pg, rig.plan, BfsProgram{}, keep);
  ASSERT_GT(kept.trims_committed, 0u);
  bool any_stay = false;
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(rig.state.exists(core::state_file_name(pg, p)));
    any_stay = any_stay || rig.stay.exists(core::stay_file_name(pg, p));
  }
  EXPECT_TRUE(any_stay);
}

// ------------------------------------------------------- memory budget

/// FastBFS's full stack at `budget`: eager trims, direction auto and the
/// auto codec with the sieve, so one run has trims, bottom-up rounds and
/// staged update blobs for the budget to keep or spill.
engine::Options budget_options(std::uint64_t budget) {
  engine::Options options;
  options.direction = engine::Direction::kAuto;
  options.update_codec = io::codec::Policy::kAuto;
  options.sieve_updates = true;
  options.memory_budget_bytes = budget;
  return options;
}

std::uint64_t state_bytes(const GraphMeta& meta) {
  return meta.num_vertices * sizeof(BfsProgram::State);
}

TEST(CoreEngine, MemoryBudgetKeyParsesByteSizes) {
  const auto budget = [](const std::string& text) {
    return engine::options_from_config(Config::parse_string(text))
        .memory_budget_bytes;
  };
  EXPECT_EQ(budget(""), 4u << 20);
  EXPECT_EQ(engine::Options{}.memory_budget_bytes, 4u << 20);
  EXPECT_EQ(budget("engine.memory_budget = 0\n"), 0u);
  EXPECT_EQ(budget("engine.memory_budget = 4M\n"), 4u << 20);
  EXPECT_EQ(budget("engine.memory_budget = 512K\n"), 512u << 10);
}

TEST(CoreEngine, StatesOneByteOverTheBudgetStayOnTheDevice) {
  // A budget one byte short of n × sizeof(State) keeps no state
  // resident: the state device sees exactly the budget-0 traffic, round
  // by round and in total, while what the budget holds goes to update
  // blobs instead.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

  std::vector<io::IoStatsSnapshot> state_io, update_io;
  std::vector<std::vector<metrics::IterationStats>> rounds;
  for (const std::uint64_t budget : {std::uint64_t{0}, state_bytes(meta) - 1}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const io::IoStatsSnapshot state_before = rig.state.stats().snapshot();
    const io::IoStatsSnapshot update_before = rig.updates.stats().snapshot();
    const auto result =
        core::run(pg, rig.plan, BfsProgram{}, budget_options(budget));
    state_io.push_back(rig.state.stats().snapshot().delta(state_before));
    update_io.push_back(rig.updates.stats().snapshot().delta(update_before));
    rounds.push_back(result.per_iteration);
  }
  EXPECT_GT(state_io[0].bytes_written, 0u);
  EXPECT_EQ(state_io[1].bytes_read, state_io[0].bytes_read);
  EXPECT_EQ(state_io[1].bytes_written, state_io[0].bytes_written);
  EXPECT_EQ(state_io[1].read_ops, state_io[0].read_ops);
  EXPECT_EQ(state_io[1].write_ops, state_io[0].write_ops);
  EXPECT_EQ(state_io[1].seeks, state_io[0].seeks);
  ASSERT_EQ(rounds[1].size(), rounds[0].size());
  for (std::size_t i = 0; i < rounds[0].size(); ++i) {
    const metrics::RoleIo& want = rounds[0][i].role_io(io::Role::kState);
    const metrics::RoleIo& got = rounds[1][i].role_io(io::Role::kState);
    EXPECT_EQ(got.bytes_read, want.bytes_read) << "round " << i;
    EXPECT_EQ(got.bytes_written, want.bytes_written) << "round " << i;
    EXPECT_EQ(got.read_ops, want.read_ops) << "round " << i;
    EXPECT_EQ(got.write_ops, want.write_ops) << "round " << i;
  }
  EXPECT_LT(update_io[1].bytes_written, update_io[0].bytes_written);
}

TEST(CoreEngine, DefaultBudgetKeepsStatesAndBlobsOffTheirDevices) {
  // At the default budget a small graph's states and every encoded
  // update blob stay in memory, on both streaming kinds: the state and
  // update devices see not one op, and no state or update file exists
  // even with keep_files. Stays still stream to their device.
  for (const engine::Kind kind :
       {engine::Kind::kCore, engine::Kind::kXstream}) {
    SCOPED_TRACE(engine::to_string(kind));
    DedicatedRig rig;
    const GraphMeta meta = rmat_graph(rig.edges);
    const auto reference = inmem::run_graph(rig.edges, meta, BfsProgram{});
    const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);

    engine::Options options =
        budget_options(engine::Options{}.memory_budget_bytes);
    options.keep_files = true;
    const auto result = engine::run(kind, pg, rig.plan, BfsProgram{}, options);

    for (io::Device* dev : {&rig.state, &rig.updates}) {
      EXPECT_EQ(dev->stats().read_ops(), 0u) << dev->root_dir();
      EXPECT_EQ(dev->stats().write_ops(), 0u) << dev->root_dir();
    }
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_FALSE(rig.state.exists(core::state_file_name(pg, p)));
      EXPECT_FALSE(rig.updates.exists(core::update_file_name(pg, p)));
    }
    if (kind == engine::Kind::kCore) {
      EXPECT_GT(result.trims_committed, 0u);
      EXPECT_GT(rig.stay.stats().bytes_written(), 0u);
    }
    ASSERT_EQ(result.states.size(), reference.states.size());
    EXPECT_EQ(std::memcmp(result.states.data(), reference.states.data(),
                          result.states.size() * sizeof(BfsProgram::State)),
              0);
  }
}

TEST(CoreEngine, RoundCountersMatchAtEveryBudget) {
  // The budget moves bytes between RAM and the devices, never the
  // traversal: every round's update, codec, direction, scan and trim
  // counters equal the budget-0 run's at every budget, from states that
  // just miss to everything resident.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
  const auto base = core::run(pg, rig.plan, BfsProgram{}, budget_options(0));
  ASSERT_GT(base.bottomup_rounds, 0u);
  ASSERT_GT(base.trims_committed, 0u);

  for (const std::uint64_t budget :
       {state_bytes(meta) - 1, state_bytes(meta), state_bytes(meta) + 256,
        engine::Options{}.memory_budget_bytes}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const auto got =
        core::run(pg, rig.plan, BfsProgram{}, budget_options(budget));
    ASSERT_EQ(got.iterations, base.iterations);
    ASSERT_EQ(got.per_iteration.size(), base.per_iteration.size());
    for (std::size_t i = 0; i < base.per_iteration.size(); ++i) {
      const metrics::IterationStats& want = base.per_iteration[i];
      const metrics::IterationStats& row = got.per_iteration[i];
      SCOPED_TRACE("round " + std::to_string(i));
      EXPECT_EQ(row.updates_emitted, want.updates_emitted);
      EXPECT_EQ(row.updates_sieved, want.updates_sieved);
      EXPECT_EQ(row.update_codec_bytes, want.update_codec_bytes);
      EXPECT_EQ(row.bottomup, want.bottomup);
      EXPECT_EQ(row.edges_scanned, want.edges_scanned);
      EXPECT_EQ(row.edges_probed, want.edges_probed);
      EXPECT_EQ(row.trims_started, want.trims_started);
      EXPECT_EQ(row.trims_committed, want.trims_committed);
      EXPECT_EQ(row.trims_cancelled, want.trims_cancelled);
      EXPECT_EQ(row.trims_failed, want.trims_failed);
      EXPECT_EQ(row.stay_edges_written, want.stay_edges_written);
    }
    EXPECT_EQ(got.epilogue.trims_committed, base.epilogue.trims_committed);
    EXPECT_EQ(got.bottomup_rounds, base.bottomup_rounds);
    EXPECT_EQ(std::memcmp(got.states.data(), base.states.data(),
                          got.states.size() * sizeof(BfsProgram::State)),
              0);
  }
}

TEST(CoreEngine, SpilledUpdateFilesMatchTheOutOfCoreRun) {
  // Two rounds of varint update blobs, whose sizes follow their update
  // counts. The budget holds the states and exactly partition 0's
  // round-1 blob, which is smaller than its round-0 blob: round 0 spills
  // partition 0, round 1 keeps it in memory (removing the round-0 file)
  // and spills every later partition, with nothing left. Each spilled
  // file is byte-identical to the budget-0 run's file of its partition.
  constexpr std::uint32_t kPartitions = 4;
  const auto kept_run = [&](DedicatedRig& rig, std::uint32_t rounds,
                            std::uint64_t budget) {
    const PartitionedGraph pg =
        partition_edge_list(rig.plan, rmat_graph(rig.edges), kPartitions);
    engine::Options options = budget_options(budget);
    options.update_codec = io::codec::Policy::kVarint;
    options.keep_files = true;
    options.max_iterations = rounds;
    (void)core::run(pg, rig.plan, BfsProgram{}, options);
    std::vector<std::vector<std::byte>> files;
    for (std::uint32_t q = 0; q < kPartitions; ++q) {
      files.push_back(read_file(rig.updates, core::update_file_name(pg, q)));
    }
    return files;
  };
  DedicatedRig one_round_rig, out_of_core_rig, partial_rig;
  const std::vector<std::vector<std::byte>> round0 =
      kept_run(one_round_rig, 1, 0);
  const std::vector<std::vector<std::byte>> want =
      kept_run(out_of_core_rig, 2, 0);
  for (std::uint32_t q = 0; q < kPartitions; ++q) {
    ASSERT_GT(want[q].size(), io::codec::kHeaderBytes) << "update file " << q;
  }
  ASSERT_GT(round0[0].size(), want[0].size());
  const std::uint64_t budget =
      state_bytes(rmat_graph(out_of_core_rig.edges)) + want[0].size();
  const std::vector<std::vector<std::byte>> got =
      kept_run(partial_rig, 2, budget);
  EXPECT_EQ(partial_rig.state.stats().write_ops(), 0u);
  EXPECT_TRUE(got[0].empty()) << "partition 0's round-0 file is still there";
  for (std::uint32_t q = 1; q < kPartitions; ++q) {
    EXPECT_EQ(got[q], want[q]) << "update file " << q;
  }
}

TEST(CoreEngine, EpilogueRowHoldsTheIoOutsideTheCountedRounds) {
  // Init, the transposed view, the uncounted final round, the end-of-run
  // settle and the final collect all move bytes outside the counted
  // rounds; the epilogue row holds them, so on dedicated devices the
  // rows plus the epilogue equal each device's counters over the call.
  // Trims race the stay writer against the round snapshots, so the
  // split between rows varies from run to run; the sum may not.
  io::DeviceModel model = io::DeviceModel::ssd();
  model.time_scale = 0.0;
  DedicatedRig rig(model);
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    engine::Options options = budget_options(0);
    options.num_threads = run % 2 == 0 ? 1 : 4;
    const metrics::RoleSnapshots before = rig.plan.stats_snapshot();
    const auto result = core::run(pg, rig.plan, BfsProgram{}, options);
    const metrics::RoleSnapshots after = rig.plan.stats_snapshot();
    ASSERT_GT(result.trims_started, 0u);

    metrics::IterationStats sum = result.epilogue;
    for (const metrics::IterationStats& row : result.per_iteration) {
      for (std::size_t r = 0; r < io::kNumRoles; ++r) {
        sum.io[r].bytes_read += row.io[r].bytes_read;
        sum.io[r].bytes_written += row.io[r].bytes_written;
        sum.io[r].read_ops += row.io[r].read_ops;
        sum.io[r].write_ops += row.io[r].write_ops;
        sum.io[r].seeks += row.io[r].seeks;
      }
      sum.device_bytes_read += row.device_bytes_read;
      sum.device_bytes_written += row.device_bytes_written;
    }
    std::uint64_t device_read = 0, device_written = 0;
    for (std::size_t r = 0; r < io::kNumRoles; ++r) {
      const io::IoStatsSnapshot d = after[r].delta(before[r]);
      EXPECT_EQ(sum.io[r].bytes_read, d.bytes_read) << "role " << r;
      EXPECT_EQ(sum.io[r].bytes_written, d.bytes_written) << "role " << r;
      EXPECT_EQ(sum.io[r].read_ops, d.read_ops) << "role " << r;
      EXPECT_EQ(sum.io[r].write_ops, d.write_ops) << "role " << r;
      EXPECT_EQ(sum.io[r].seeks, d.seeks) << "role " << r;
      device_read += d.bytes_read;
      device_written += d.bytes_written;
    }
    EXPECT_EQ(sum.device_bytes_read, device_read);
    EXPECT_EQ(sum.device_bytes_written, device_written);
  }
}

TEST(CoreEngine, StayFileNameEncodesPartitioning) {
  DedicatedRig rig;
  const GraphMeta meta = chain_graph(rig.edges, 8);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
  EXPECT_EQ(core::stay_file_name(pg, 2), "chain.P4.stay2");
}

TEST(CoreEngineDeath, MisfiledPartitionEdgeIsCaught) {
  // The top-down scan checks every scanned edge's source against the
  // scanned partition's range. Record 0 of partition 0's file,
  // overwritten with an edge out of partition 1, aborts the run in the
  // first round's scan of partition 0 (it holds the root).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
  {
    auto file = rig.edges.open(pg.partition_file(0), /*truncate=*/false);
    const graph::Edge misfiled{pg.layout.begin(1), 0};
    file->write_at(0, &misfiled, sizeof(misfiled));
  }
  EXPECT_DEATH((void)core::run(pg, rig.plan, BfsProgram{}, {}), "misfiled");
}

TEST(CoreGatherDeath, ShortRawUpdateStreamIsCaught) {
  // A raw update file's header carries no record count, so a file that
  // lost whole records still decodes cleanly. The serial gather counts
  // what it folds: three records where scatter reported four must abort
  // naming the file, not return wrong levels.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DedicatedRig rig;
  const GraphMeta meta = chain_graph(rig.edges, 8);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 2);
  const std::string name = core::update_file_name(pg, 0);
  io::codec::CodecWriter<BfsProgram::Update> writer(rig.updates, name,
                                                    1 << 10);
  for (graph::VertexId v = 1; v <= 3; ++v) writer.append({v, 1});
  writer.close();

  const BfsProgram program;
  core::detail::StateStore<BfsProgram> store(pg, rig.plan, {}, 1 << 10,
                                             /*resident=*/false);
  AtomicBitmap active(meta.num_vertices), next_active(meta.num_vertices);
  core::detail::init_partition_states(pg, store, program, active);
  const std::vector<std::uint64_t> pending = {4, 0};
  std::vector<std::vector<std::byte>> resident(2);
  EXPECT_DEATH(core::detail::gather_partitions(pg, rig.plan, {}, store,
                                               program, pending, resident,
                                               next_active),
               name + " decodes to 3 records, expected 4");
}

TEST(CoreEngineDeath, ScannedBlockOutsideItsIndexEntryIsCaught) {
  // A scan skips blocks by the partition block index, so every block it
  // reads is checked against its entry. Narrowing block 0's entry to the
  // root alone keeps the block needed in round 0, and its other sources
  // now lie outside the entry.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges);
  PartitionedGraph pg = partition_edge_list(rig.plan, meta, 1);
  ASSERT_EQ(pg.blocks[0][0].first, 0u);
  ASSERT_GT(pg.blocks[0][0].last, 0u);
  pg.blocks[0][0].last = 0;
  EXPECT_DEATH((void)core::run(pg, rig.plan, BfsProgram{}, {}),
               "its block holds sources \\[0, 1\\)");
}

TEST(CoreEngineDeath, PartitionFileThatRunsLongIsCaught) {
  // A positional scan reads only the bytes its schedule names, so each
  // input's size is checked when the scan opens it: one edge appended to
  // a partition file aborts the run at every thread count.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const std::uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    DedicatedRig rig;
    const GraphMeta meta = rmat_graph(rig.edges);
    const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 4);
    const std::uint64_t bytes = pg.edges_per_partition[0] * sizeof(graph::Edge);
    {
      auto file = rig.edges.open(pg.partition_file(0), /*truncate=*/false);
      const graph::Edge extra{0, 1};
      file->append(&extra, sizeof(extra));
    }
    engine::Options options;
    options.num_threads = threads;
    EXPECT_DEATH((void)core::run(pg, rig.plan, BfsProgram{}, options),
                 pg.partition_file(0) + " holds " +
                     std::to_string(bytes + sizeof(graph::Edge)) +
                     " bytes, expected " + std::to_string(bytes));
  }
}

/// Every update and stay file a kept run left on `dev`.
std::vector<std::vector<std::byte>> run_files(io::Device& dev,
                                              const PartitionedGraph& pg) {
  std::vector<std::vector<std::byte>> files;
  for (std::uint32_t p = 0; p < pg.layout.num_partitions(); ++p) {
    files.push_back(read_file(dev, core::update_file_name(pg, p)));
    files.push_back(read_file(dev, core::stay_file_name(pg, p)));
  }
  return files;
}

std::uint64_t edge_bytes_skipped(
    const std::vector<metrics::IterationStats>& rounds) {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.edge_bytes_skipped;
  return total;
}

TEST(CoreBlockSkip, IndexChangesNoFileAndNoState) {
  // Skipping the blocks that hold no active source changes which bytes a
  // scan reads and nothing else. Across reader buffers (4 KiB units are
  // shorter than a 4096-record block; 1 MiB ones hold whole partitions),
  // device models (the HDD reads through gaps of up to 26 blocks, the
  // SSD and the unthrottled device through none) and thread counts
  // (1, 2 and 4, rotating over the model x buffer cells), a
  // run with the partition block index and one without it leave
  // byte-identical update and stay files after each of the first five
  // rounds — with trimming off and with eager trimming — and
  // bit-identical states, also under a 25% dead-fraction trim gate,
  // whose dead counts see only the blocks a scan read. The sieve is on.
  // Update files alternate between raw (every record the sieve kept
  // shows) and the auto codec, and stays between raw (scanned
  // positionally) and encoded (decoded, then scanned in RAM). The
  // Erdos-Renyi graph's sparse early frontiers leave gaps between the
  // blocks a 1 MiB unit reads, with duplicate destinations on both
  // sides: a schedule that cut units at those gaps would sieve fewer
  // duplicates and change the raw update files. (Its 4 KiB units never
  // span a gap, so it runs only the 1 MiB ones.)
  struct TrimMode {
    const char* name;
    bool trim;
    double min_dead_fraction;
    bool compare_files;
  };
  const TrimMode modes[] = {{"trim off", false, 0.0, true},
                            {"eager trim", true, 0.0, true},
                            {"25% dead gate", true, 0.25, false}};
  const std::pair<const char*, io::DeviceModel> models[] = {
      {"hdd", io::DeviceModel::hdd()},
      {"ssd", io::DeviceModel::ssd()},
      {"unthrottled", io::DeviceModel::unthrottled()}};
  const auto rmat = [](io::Device& dev) {
    return rmat_graph(dev, /*scale=*/11, /*edge_factor=*/16);
  };
  const auto erdos_renyi = [](io::Device& dev) {
    const graph::ErdosRenyiSource source(
        {.num_vertices = 20'000, .num_edges = 80'000, .seed = 3});
    return graph::write_generated(
        dev, "er", source.num_vertices(), source.seed(), source.undirected(),
        [&](const graph::EdgeSink& sink) { source.generate(sink); });
  };
  const struct {
    const char* name;
    GraphMeta (*make)(io::Device&);
    std::uint32_t partitions;
    std::vector<std::size_t> buffers;
  } graphs[] = {
      {"rmat", +rmat, 2, {std::size_t{4} << 10, std::size_t{1} << 20}},
      {"er", +erdos_renyi, 1, {std::size_t{1} << 20}}};
  std::size_t cell = 0;
  for (const auto& graph : graphs) {
    TempDir dir("core");
    io::Device base(dir.str(), io::DeviceModel::unthrottled());
    const GraphMeta meta = graph.make(base);
    const BfsProgram program;
    const PartitionedGraph pg = partition_edge_list(
        io::StoragePlan::single(base), meta, graph.partitions);
    ASSERT_GT(pg.blocks[0].size(), 2u);
    const auto reference = engine::run(engine::Kind::kInmem, pg,
                                       io::StoragePlan::single(base), program);
    PartitionedGraph unindexed = pg;
    unindexed.blocks.clear();
    constexpr std::uint32_t kThreads[] = {1, 2, 4};
    for (std::size_t m = 0; m < std::size(models); ++m) {
      const auto& [model_name, model] = models[m];
      io::DeviceModel quiet_model = model;
      quiet_model.time_scale = 0.0;  // accounting only: no sleeping
      io::Device dev(dir.str(), quiet_model);
      const io::StoragePlan plan = io::StoragePlan::single(dev);
      for (std::size_t b = 0; b < graph.buffers.size(); ++b) {
        const std::size_t buffer = graph.buffers[b];
        const std::uint32_t threads = kThreads[(m + b) % 3];
        for (const TrimMode& mode : modes) {
          SCOPED_TRACE(std::string(graph.name) + ", " + model_name +
                       ", buffer " + std::to_string(buffer) + ", T=" +
                       std::to_string(threads) + ", " + mode.name);
          engine::Options options;
          options.reader.buffer_bytes = buffer;
          options.num_threads = threads;
          options.trim = mode.trim;
          options.trim_min_dead_fraction = mode.min_dead_fraction;
          options.sieve_updates = true;
          options.update_codec = cell % 2 == 0 ? io::codec::Policy::kRaw
                                               : io::codec::Policy::kAuto;
          options.stay_codec = cell / 2 % 2 == 0 ? io::codec::Policy::kRaw
                                                 : io::codec::Policy::kAuto;
          ++cell;
          options.memory_budget_bytes = 0;  // every run file on the device
          for (std::uint32_t rounds = 1; mode.compare_files && rounds <= 5;
               ++rounds) {
            SCOPED_TRACE("after round " + std::to_string(rounds - 1));
            engine::Options kept = options;
            kept.keep_files = true;
            kept.max_iterations = rounds;
            (void)core::run(unindexed, plan, program, kept);
            const auto want = run_files(dev, pg);
            core::detail::remove_run_files(pg, plan);
            (void)core::run(pg, plan, program, kept);
            const auto got = run_files(dev, pg);
            core::detail::remove_run_files(pg, plan);
            ASSERT_EQ(got, want);
          }
          const auto whole = core::run(unindexed, plan, program, options);
          const auto skipping = core::run(pg, plan, program, options);
          for (const auto* result : {&whole, &skipping}) {
            ASSERT_EQ(std::memcmp(result->states.data(),
                                  reference.states.data(),
                                  reference.states.size() *
                                      sizeof(BfsProgram::State)),
                      0);
          }
          EXPECT_EQ(edge_bytes_skipped(whole.per_iteration), 0u);
          if (!mode.trim) {
            EXPECT_GT(edge_bytes_skipped(skipping.per_iteration), 0u);
          }
        }
      }
    }
  }
}

TEST(CoreBlockSkip, SkippedAndScannedEdgesCoverEveryInput) {
  // One partition, so every round scans the whole input. Without trims,
  // a round's scanned and skipped edges add up to the graph, and round 0
  // — one root, a few blocks of out-edges — skips most of it and reads
  // only what it scans. A trimming scan must collect every survivor, so
  // it reads every block; the X-Stream preset scans without the index.
  DedicatedRig rig;
  const GraphMeta meta = rmat_graph(rig.edges, /*scale=*/11, /*edge_factor=*/16);
  const PartitionedGraph pg = partition_edge_list(rig.plan, meta, 1);
  ASSERT_GT(pg.blocks[0].size(), 2u);

  engine::Options untrimmed;
  untrimmed.trim = false;
  const auto skipping = core::run(pg, rig.plan, BfsProgram{}, untrimmed);
  ASSERT_GT(skipping.iterations, 1u);
  for (const auto& r : skipping.per_iteration) {
    SCOPED_TRACE("round " + std::to_string(r.iteration));
    EXPECT_EQ(r.edges_scanned + r.edge_bytes_skipped / sizeof(graph::Edge),
              meta.num_edges);
    EXPECT_EQ(r.edge_bytes_skipped % sizeof(graph::Edge), 0u);
    EXPECT_EQ(r.role_io(io::Role::kEdges).bytes_read,
              r.edges_scanned * sizeof(graph::Edge));
  }
  EXPECT_GT(skipping.per_iteration[0].edge_bytes_skipped,
            meta.edge_bytes() / 2);

  const auto trimming = core::run(pg, rig.plan, BfsProgram{}, {});
  EXPECT_GT(trimming.trims_committed, 0u);
  EXPECT_EQ(edge_bytes_skipped(trimming.per_iteration), 0u);
  EXPECT_EQ(trimming.per_iteration[0].edges_scanned, meta.num_edges);

  const auto xstream = engine::run(engine::Kind::kXstream, pg, rig.plan,
                                   BfsProgram{}, untrimmed);
  EXPECT_EQ(xstream.iterations, skipping.iterations);
  for (const auto& r : xstream.per_iteration) {
    EXPECT_EQ(r.edge_bytes_skipped, 0u) << "round " << r.iteration;
    EXPECT_EQ(r.edges_scanned, meta.num_edges) << "round " << r.iteration;
  }
}

}  // namespace
}  // namespace fbfs
