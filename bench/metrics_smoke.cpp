// Metrics smoke: the benchmark-mode proof of the observability layer's
// two contracts, runnable standalone in CI perf-smoke.
//
//   1. Zero-cost when disabled: a replacement counting operator new
//      shows the engines' exact hot-loop hook pattern performs ZERO
//      heap allocations when the collector is null — and none on the
//      recording path either once a collector exists.
//   2. Collection never perturbs results: BFS states produced with a
//      live collector are bit-identical to the collector-free
//      in-memory reference (checked inside run_bfs).
//
// It also drives both renderers (the per-iteration table and the JSON
// emitter) and the background sampler thread, so a CI log shows what a
// collected run actually reports.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "json_writer.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/temp_dir.hpp"
#include "graph/generators.hpp"
#include "metrics/collector.hpp"

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

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)

/// The engine hot-loop hook pattern, verbatim: phase timer, gated live
/// counters, per-batch flush. `collector` may be null.
void hot_loop(metrics::Collector* collector, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    std::uint64_t scanned = 0;
    std::uint64_t emitted = 0;
    std::uint64_t sieved = 0;
    {
      const metrics::ScopedPhase phase(collector, metrics::Phase::kScatter);
      scanned += 16;
      emitted += 3;
      sieved += 13;
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_updates(emitted, sieved);
      collector->live().add_partition_scattered();
      collector->record_phase_ns(metrics::Phase::kShuffleFlush, 100 + i);
    }
  }
}

void check_zero_alloc_paths() {
  // Null collector: the whole pattern must cost one pointer test.
  std::uint64_t before = g_allocations.load();
  hot_loop(nullptr, 100'000);
  std::uint64_t delta = g_allocations.load() - before;
  FB_CHECK_MSG(delta == 0,
               "null-collector hot loop heap-allocated " << delta << " times");
  std::cout << "zero-alloc: null-collector hot loop .......... PASS\n";

  // Live collector: recording is sharded relaxed atomics, still no heap.
  metrics::Collector collector({.histogram_shards = 4});
  before = g_allocations.load();
  hot_loop(&collector, 100'000);
  delta = g_allocations.load() - before;
  FB_CHECK_MSG(delta == 0,
               "recording hot loop heap-allocated " << delta << " times");
  std::cout << "zero-alloc: live recording hot loop .......... PASS\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::cerr << "usage: metrics_smoke [--quick]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  std::cout << "=== metrics_smoke ===\n";

  check_zero_alloc_paths();

  // A real collected run: tiny r-mat BFS through the trimming engine.
  // run_bfs aborts unless the states match the collector-free in-memory
  // reference bit for bit — the does-not-perturb contract.
  TempDir workspace("metrics_smoke");
  const bench::Dataset ds = bench::make_dataset(
      workspace.str() + "/rmat", "rmat",
      graph::RmatSource({.scale = 10, .edge_factor = 8, .seed = 5}),
      /*partitions=*/4);
  bench::SystemOptions options;
  options.kind = engine::Kind::kCore;
  options.num_threads = 2;
  const metrics::RunStats run = bench::run_bfs(ds, options);
  FB_CHECK_MSG(!run.iterations.empty(), "collector recorded no iterations");
  std::cout << "bit-identity: collected run == reference ..... PASS\n\n";

  // Renderers: the table CI logs, and the JSON shape CI uploads.
  run.print();
  metrics::Json json;
  json.open("smoke");
  run.write_json(json);
  json.close();
  FB_CHECK_MSG(json.str().find("modelled_iowait") != std::string::npos,
               "JSON emitter lost the iowait field");
  std::cout << "\nrenderers: table + JSON emitter ............. PASS\n";

  // Sampler thread: start it, feed it racing live ops for a few
  // intervals (FASTBFS_LOG=info shows the rate lines), join in ~Collector.
  {
    metrics::Collector sampled({.sampler_interval_seconds = 0.01});
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    std::uint64_t i = 0;
    while (std::chrono::steady_clock::now() < until) {
      sampled.live().add_edges_scanned(1000);
      sampled.live().add_updates(10, 5);
      sampled.record_phase_ns(metrics::Phase::kScatter, ++i);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    metrics::IterationStats stats;
    stats.iteration = 0;
    sampled.end_iteration(stats);
  }
  std::cout << "sampler: background thread start/log/join .... PASS\n";

  std::cout << "\nmetrics_smoke: all checks passed\n";
  return 0;
}
