// Collector contracts: config plumbing, phase drains at iteration
// boundaries, the zero-cost-when-disabled promise (counted via a
// replacement global operator new), and — the one that matters most —
// collection not perturbing engine results: states bit-identical with
// metrics on and off, for every engine kind.
#include "metrics/collector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"
#include "metrics/run_stats.hpp"

// ---- allocation counter: every path through the replaced operator new
// bumps the counter, so a zero delta proves a code region heap-allocated
// nothing on this thread or any other. The replacement pairs
// malloc-backed new with free-backed delete, which is well-formed for
// replaced global allocators; GCC's heuristic cannot see the pairing
// across inlining and misfires.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fbfs {
namespace {

using graph::BfsProgram;
using graph::GraphMeta;
using graph::PartitionedGraph;
using graph::partition_edge_list;

GraphMeta rmat_graph(io::Device& dev) {
  const graph::RmatSource source({.scale = 8, .edge_factor = 8, .seed = 11});
  return graph::write_generated(
      dev, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
}

TEST(Collector, OptionsComeFromConfigKeys) {
  const Config config = Config::parse_string(
      "metrics.histogram_shards = 8\n"
      "metrics.sampler_interval = 0.5\n");
  const metrics::CollectorOptions opts =
      metrics::collector_options_from_config(config);
  EXPECT_EQ(opts.histogram_shards, 8u);
  EXPECT_DOUBLE_EQ(opts.sampler_interval_seconds, 0.5);
  // Defaults: 16 shards, sampler off.
  const metrics::CollectorOptions defaults =
      metrics::collector_options_from_config(Config{});
  EXPECT_EQ(defaults.histogram_shards, 16u);
  EXPECT_DOUBLE_EQ(defaults.sampler_interval_seconds, 0.0);
}

TEST(Collector, EndIterationDrainsPhaseShardsIntoRows) {
  metrics::Collector collector({.histogram_shards = 2});
  collector.record_phase_ns(metrics::Phase::kScatter, 100);
  collector.record_phase_ns(metrics::Phase::kScatter, 200);
  collector.record_phase_ns(metrics::Phase::kGather, 50);
  metrics::IterationStats stats;
  stats.iteration = 0;
  stats.updates_emitted = 7;
  collector.end_iteration(stats);

  // Second iteration starts from drained shards.
  collector.record_phase_ns(metrics::Phase::kScatter, 900);
  stats.iteration = 1;
  collector.end_iteration(stats);

  const metrics::RunStats& run = collector.run_stats();
  ASSERT_EQ(run.iterations.size(), 2u);
  const auto& first = run.iterations[0];
  EXPECT_EQ(first.phase_hist(metrics::Phase::kScatter).count(), 2u);
  EXPECT_EQ(first.phase_hist(metrics::Phase::kScatter).sum(), 300u);
  EXPECT_EQ(first.phase_hist(metrics::Phase::kGather).count(), 1u);
  EXPECT_TRUE(first.phase_hist(metrics::Phase::kApply).empty());
  const auto& second = run.iterations[1];
  EXPECT_EQ(second.phase_hist(metrics::Phase::kScatter).count(), 1u);
  EXPECT_EQ(second.phase_hist(metrics::Phase::kScatter).min(), 900u);
  // The exact-merge aggregate over rows.
  EXPECT_EQ(run.phase_total(metrics::Phase::kScatter).count(), 3u);
  EXPECT_EQ(run.phase_total(metrics::Phase::kScatter).sum(), 1200u);
  EXPECT_EQ(run.ops.iterations, 2u);
  EXPECT_EQ(run.updates_emitted(), 14u);
}

TEST(Collector, NullCollectorHooksAllocateNothing) {
  // The exact hook pattern the engine hot loops use, with the collector
  // absent: ScopedPhase plus guarded live-op flushes. Zero heap
  // allocations, process-wide, across the whole region.
  metrics::Collector* collector = nullptr;
  std::uint64_t local_edges = 0;
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    metrics::ScopedPhase scatter(collector, metrics::Phase::kScatter);
    local_edges += 3;
    if (collector != nullptr) {
      collector->live().add_edges_scanned(local_edges);
      collector->live().add_updates(1, 2);
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(local_edges, 30'000u);
}

TEST(Collector, HotPathRecordingAllocatesNothing) {
  // With a live collector the recording path is atomics only —
  // allocation happens at construction and end_iteration, never inside
  // a phase.
  metrics::Collector collector({.histogram_shards = 4});
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    metrics::ScopedPhase scatter(&collector, metrics::Phase::kScatter);
    collector.live().add_edges_scanned(5);
    collector.live().add_updates(2, 1);
    collector.record_phase_ns(metrics::Phase::kShuffleFlush, i);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(collector.live().snapshot().edges_scanned, 50'000u);
}

TEST(Collector, SamplerThreadStartsLogsAndJoins) {
  // Construction starts it, destruction stops it; recording races it
  // harmlessly (TSan covers this configuration in CI).
  metrics::Collector collector(
      {.histogram_shards = 2, .sampler_interval_seconds = 0.01});
  for (int i = 0; i < 100; ++i) {
    collector.live().add_edges_scanned(1'000);
    collector.record_phase_ns(metrics::Phase::kScatter, 500);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Collector, XstreamStatesAreBitIdenticalWithMetricsOnAndOff) {
  TempDir dir("collector");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const GraphMeta meta = rmat_graph(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  const auto off = engine::run(engine::Kind::kXstream, pg, plan, BfsProgram{});

  metrics::Collector collector;
  engine::Options instrumented;
  instrumented.collector = &collector;
  const auto on = engine::run(engine::Kind::kXstream, pg, plan, BfsProgram{},
                              instrumented);

  ASSERT_EQ(on.states.size(), off.states.size());
  EXPECT_EQ(std::memcmp(on.states.data(), off.states.data(),
                        off.states.size() * sizeof(off.states[0])),
            0);
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_EQ(on.updates_emitted, off.updates_emitted);

  // And the collector saw the run the engine reports: one row per
  // round, live totals matching the engine's own counters.
  const metrics::RunStats& run = collector.run_stats();
  ASSERT_EQ(run.iterations.size(), on.per_iteration.size());
  EXPECT_EQ(run.ops.updates_emitted, on.updates_emitted);
  EXPECT_EQ(run.updates_emitted(), on.updates_emitted);
  std::uint64_t scattered = 0;
  for (const auto& row : on.per_iteration) {
    scattered += row.partitions_scattered;
  }
  EXPECT_EQ(run.ops.partitions_scattered, scattered);
  EXPECT_GT(run.phase_total(metrics::Phase::kScatter).count(), 0u);
  EXPECT_GT(run.phase_total(metrics::Phase::kShuffleFlush).count(), 0u);
  EXPECT_GT(run.phase_total(metrics::Phase::kGather).count(), 0u);
  EXPECT_TRUE(run.phase_total(metrics::Phase::kTrimResolve).empty());
}

TEST(Collector, CoreTrimmingStatesAreBitIdenticalWithMetricsOnAndOff) {
  // The trimming engine, parallel, with the collector attached: same
  // states as the uninstrumented run, and the trim-resolve phase shows
  // up in the histograms.
  TempDir dir("collector");
  io::Device main_dev(dir.str() + "/main", io::DeviceModel::unthrottled());
  io::Device aux_dev(dir.str() + "/aux", io::DeviceModel::unthrottled());
  const io::StoragePlan plan = io::StoragePlan::dual(main_dev, aux_dev);
  const GraphMeta meta = rmat_graph(main_dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 4);

  engine::Options plain;
  plain.num_threads = 2;
  const auto off = core::run(pg, plan, BfsProgram{}, plain);

  metrics::Collector collector;
  engine::Options instrumented = plain;
  instrumented.collector = &collector;
  const auto on = core::run(pg, plan, BfsProgram{}, instrumented);

  ASSERT_EQ(on.states.size(), off.states.size());
  EXPECT_EQ(std::memcmp(on.states.data(), off.states.data(),
                        off.states.size() * sizeof(off.states[0])),
            0);
  EXPECT_EQ(on.trims_committed, off.trims_committed);
  EXPECT_EQ(on.stay_edges_written, off.stay_edges_written);

  const metrics::RunStats& run = collector.run_stats();
  ASSERT_EQ(run.iterations.size(), on.per_iteration.size());
  std::uint32_t resolved = 0;
  for (const auto& row : run.iterations) {
    resolved += row.stats.trims_committed + row.stats.trims_cancelled +
                row.stats.trims_failed;
  }
  if (resolved > 0) {
    EXPECT_GE(run.phase_total(metrics::Phase::kTrimResolve).count(),
              resolved);
  }
}

TEST(Collector, InmemRunFeedsCollectorAndRenderersWork) {
  const graph::RmatSource source({.scale = 7, .edge_factor = 8, .seed = 3});
  std::vector<graph::Edge> edges;
  source.generate([&](const graph::Edge& e) { edges.push_back(e); });
  const graph::Csr csr(source.num_vertices(), edges);

  metrics::Collector collector;
  engine::Options options;
  options.collector = &collector;
  const auto result = inmem::run(csr, BfsProgram{}, options);

  const metrics::RunStats& run = collector.run_stats();
  EXPECT_EQ(run.iterations.size(), result.iterations);
  EXPECT_EQ(run.ops.updates_emitted, result.updates_emitted);
  EXPECT_EQ(run.phase_total(metrics::Phase::kScatter).count(),
            run.iterations.size());

  // Renderers: the table prints one row per round, the JSON carries the
  // totals and per-phase digests.
  std::ostringstream table;
  run.print(table);
  EXPECT_NE(table.str().find("iter"), std::string::npos);
  metrics::Json json;
  json.open("run");
  run.write_json(json);
  json.close();
  const std::string text = json.str();
  EXPECT_NE(text.find("\"updates_emitted\""), std::string::npos);
  EXPECT_NE(text.find("\"phase_scatter\""), std::string::npos);
  EXPECT_NE(text.find("\"modelled_iowait\""), std::string::npos);
}

}  // namespace
}  // namespace fbfs
