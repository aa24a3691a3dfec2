// Fig. 8 — execution time vs thread count (paper §IV, Fig. 8), plus
// the PR 5 scatter-scaling headline.
//
// Part A reproduces the paper's shape: BFS on R-MAT with every storage
// role on ONE modelled HDD. The device timeline serialises, so the run
// is transfer-bound and the curve over T ∈ {1,2,4,8} is flat — extra
// threads cannot make one disk spin faster. This is the paper's point:
// FastBFS does not need a thread army to saturate a single server.
//
// Part B is the configuration where threads DO pay: a compute-weighted
// regime where the edge-input devices stream at a rate calibrated to
// this machine's scatter compute speed (sleep ~= compute per chunk).
// With T=1 the engine alternates read-wait and compute; with T>1 the
// chunked scatter overlaps one worker's modelled read latency with
// another worker's compute, so the scatter phase approaches
// max(transfer, compute) instead of their sum — ideally ~2x. The
// calibrated model uses a fixed time_scale of 1.0 (FASTBFS_TIME_SCALE
// is deliberately NOT applied) so the compute/transfer ratio — the
// variable under study — is identical locally and in CI.
//
// Every run is checked bit-identical against the in-memory reference
// before its numbers are reported. Results land in BENCH_pr5.json
// (--out=FILE); --quick shrinks the graphs for CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "json_writer.hpp"

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using bench::Json;
using graph::BfsProgram;

struct Dataset {
  std::string name;
  graph::GraphMeta meta;
  std::uint32_t partitions = 0;
  std::string root;
  std::vector<BfsProgram::State> reference;
  graph::PartitionedGraph pg;
};

/// Generates and partitions on unthrottled devices (setup is free);
/// each measured run then opens fresh modelled devices on the same
/// roots, so counters and the modelled timeline start at zero.
Dataset make_dataset(const std::string& root, const std::string& name,
                     const graph::ChunkedEdgeSource& source,
                     std::uint32_t partitions) {
  Dataset ds;
  ds.name = name;
  ds.partitions = partitions;
  ds.root = root;
  io::Device edges(root + "/edges", io::DeviceModel::unthrottled());
  ds.meta = graph::write_generated(
      edges, name, source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
  ds.pg = graph::partition_edge_list(edges, ds.meta, partitions);
  ds.reference = inmem::run_graph(edges, ds.meta, BfsProgram{.root = 0}).states;
  return ds;
}

struct RunStats {
  double wall_seconds = 0.0;
  double scatter_seconds = 0.0;  // summed over iterations
  double gather_seconds = 0.0;
  std::uint32_t iterations = 0;
};

RunStats run_bfs(const Dataset& ds, const io::StoragePlan& plan,
                 engine::Kind kind, const engine::Options& options) {
  Stopwatch sw;
  const auto result =
      engine::run(kind, ds.pg, plan, BfsProgram{.root = 0}, options);
  RunStats stats;
  stats.wall_seconds = sw.seconds();
  stats.iterations = result.iterations;
  for (const auto& it : result.per_iteration) {
    stats.scatter_seconds += it.scatter_seconds;
    stats.gather_seconds += it.gather_seconds;
  }
  FB_CHECK_MSG(result.states.size() == ds.reference.size() &&
                   std::memcmp(result.states.data(), ds.reference.data(),
                               result.states.size() *
                                   sizeof(BfsProgram::State)) == 0,
               engine::to_string(kind)
                   << " T=" << options.num_threads << " on " << ds.name
                   << " diverged from the in-memory reference");
  return stats;
}

/// Part A: one modelled HDD carries every role (FASTBFS_TIME_SCALE
/// applies, so CI keeps quick mode cheap). The paper's flat curve.
void part_a(Json& json, const Dataset& ds) {
  std::cout << "\n--- Part A: single modelled HDD, all roles ("
            << ds.meta.num_edges << " edges, P=" << ds.partitions << ") ---\n";
  std::printf("  %7s %12s %12s\n", "threads", "xstream (s)", "fastbfs (s)");
  json.open("part_a");
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    io::Device disk(ds.root + "/edges", io::DeviceModel::hdd());
    const io::StoragePlan plan = io::StoragePlan::single(disk);
    engine::Options options;
    options.num_threads = threads;
    options.memory_budget_bytes = 0;  // the out-of-core regime
    const RunStats xs = run_bfs(ds, plan, engine::Kind::kXstream, options);
    const RunStats fb = run_bfs(ds, plan, engine::Kind::kCore, options);
    std::printf("  %7u %12.3f %12.3f\n", threads, xs.wall_seconds,
                fb.wall_seconds);
    // Built by append: gcc 12 flags `"t" + std::to_string(...)` with a
    // false -Wrestrict inside libstdc++, which breaks -Werror builds.
    json.open(std::string("t").append(std::to_string(threads)));
    json.number("xstream_wall_seconds", xs.wall_seconds);
    json.number("fastbfs_wall_seconds", fb.wall_seconds);
    json.close();
  }
  json.close();
}

/// Measures how fast THIS machine's scatter loop chews edges (bitmap
/// test + owner bucketing, the parallel worker's inner loop), so Part
/// B's device model can be pinned at sleep ~= compute per chunk.
double calibrate_compute_mb_s(std::uint32_t partitions) {
  constexpr std::uint64_t kEdges = 1u << 20;
  constexpr graph::VertexId kVertices = 1u << 16;
  std::vector<graph::Edge> edges(kEdges);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;  // splitmix-ish synth stream
  for (graph::Edge& e : edges) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    e.src = static_cast<graph::VertexId>((x >> 20) % kVertices);
    e.dst = static_cast<graph::VertexId>((x >> 36) % kVertices);
  }
  AtomicBitmap active(kVertices);
  for (graph::VertexId v = 0; v < kVertices; v += 3) active.set(v);
  const graph::VertexId per_part =
      (kVertices + partitions - 1) / partitions;

  double best_rate = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::vector<graph::Edge>> buckets(partitions);
    Stopwatch sw;
    for (const graph::Edge& e : edges) {
      if (!active.test(e.src)) continue;
      buckets[e.dst / per_part].push_back({e.dst, e.src});
    }
    const double secs = sw.seconds();
    std::uint64_t sink = 0;
    for (const auto& b : buckets) sink += b.size();
    FB_CHECK(sink > 0);
    const double rate =
        static_cast<double>(kEdges * sizeof(graph::Edge)) / secs / 1.0e6;
    if (rate > best_rate) best_rate = rate;
  }
  return best_rate;
}

struct PartBConfig {
  std::string key;  // json section
  engine::Kind kind = engine::Kind::kXstream;
  bool trim = false;  // kCore only
};

/// Part B: the PR 5 headline. Edge-input roles (edges + stay) on a
/// calibrated fixed-rate streaming model, state/updates unthrottled,
/// plain chunk-sized reads at every T so the only variable is how many
/// workers overlap read latency with compute. The scaling rows are
/// xstream and core-with-trim-off (identical edge input every round);
/// core-with-trim-on is reported too: trimming deletes most of the
/// edge input after round 1, so later rounds are compute-only and its
/// aggregate speedup is structurally lower — trimming and threading
/// compete for the same wasted I/O.
void part_b(Json& json, const Dataset& ds, std::size_t chunk_bytes,
            double& xstream_speedup, double& core_speedup) {
  const double compute_mb_s = calibrate_compute_mb_s(ds.partitions);
  // The calibration loop is leaner than the real scatter worker (no
  // batch bookkeeping, no locked flush), so the engine chews bytes
  // slower than the calibrated rate; scale the model down so the
  // modelled transfer still lands near the engine's true compute
  // speed. Clamp so a pathological calibration cannot produce sleeps
  // too tiny to time or so long the bench crawls.
  const double rate =
      std::min(2000.0, std::max(50.0, 0.5 * compute_mb_s));
  io::DeviceModel model;
  model.name = "calibrated-stream";
  model.read_mb_s = rate;
  model.write_mb_s = rate;
  model.seek_ns = 0;        // pure streaming: ratio is the variable
  model.time_scale = 1.0;   // fixed on purpose; see file comment

  std::cout << "\n--- Part B: compute-weighted (calibrated " << rate
            << " MB/s edge stream, chunk " << chunk_bytes << " B, "
            << ds.meta.num_edges << " edges) ---\n";
  std::printf("  %-16s %7s %12s %12s %10s\n", "engine", "threads",
              "scatter (s)", "wall (s)", "iters");

  json.open("part_b");
  json.number("calibrated_compute_mb_s", compute_mb_s);
  json.number("model_read_mb_s", rate);
  json.integer("chunk_bytes", chunk_bytes);
  json.integer("edges", ds.meta.num_edges);

  const io::ReaderOptions reader{.buffer_bytes = chunk_bytes};
  const std::vector<PartBConfig> configs = {
      {"xstream", engine::Kind::kXstream, false},
      {"fastbfs_no_trim", engine::Kind::kCore, false},
      {"fastbfs_trim", engine::Kind::kCore, true},
  };
  std::vector<double> scatter_t1(configs.size(), 0.0);
  std::vector<double> scatter_t4(configs.size(), 0.0);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const PartBConfig& cfg = configs[i];
    json.open(cfg.key);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      io::Device edges(ds.root + "/edges", model);
      io::Device state(ds.root + "/state", io::DeviceModel::unthrottled());
      io::Device updates(ds.root + "/updates", io::DeviceModel::unthrottled());
      io::Device stay(ds.root + "/stay", model);
      const io::StoragePlan plan = io::StoragePlan::single(edges)
                                       .assign(io::Role::kState, state)
                                       .assign(io::Role::kUpdates, updates)
                                       .assign(io::Role::kStay, stay);
      engine::Options options;
      options.reader = reader;
      options.num_threads = threads;
      options.memory_budget_bytes = 0;  // the out-of-core regime
      options.trim = cfg.trim;
      const RunStats s = run_bfs(ds, plan, cfg.kind, options);
      std::printf("  %-16s %7u %12.3f %12.3f %10u\n", cfg.key.c_str(),
                  threads, s.scatter_seconds, s.wall_seconds, s.iterations);
      if (threads == 1) scatter_t1[i] = s.scatter_seconds;
      if (threads == 4) scatter_t4[i] = s.scatter_seconds;
      json.open(std::string("t").append(std::to_string(threads)));
      json.number("scatter_seconds", s.scatter_seconds);
      json.number("gather_seconds", s.gather_seconds);
      json.number("wall_seconds", s.wall_seconds);
      json.integer("iterations", s.iterations);
      json.close();
    }
    json.close();
  }
  json.number("fastbfs_trim_scatter_speedup_4t",
              scatter_t1[2] / scatter_t4[2]);
  json.close();

  xstream_speedup = scatter_t1[0] / scatter_t4[0];
  core_speedup = scatter_t1[1] / scatter_t4[1];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr5.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: fig8_threads [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();

  TempDir workspace("fig8_threads");
  const Dataset rmat = make_dataset(
      workspace.str() + "/rmat", "rmat",
      graph::RmatSource({.scale = quick ? 14u : 16u, .edge_factor = 16,
                         .seed = 20160523}),
      /*partitions=*/4);
  // Part B's device model ignores FASTBFS_TIME_SCALE, so a bigger graph
  // is what keeps the measured phases long enough to dwarf per-chunk
  // scheduling overheads (quick mode stays under a few seconds).
  const Dataset rmat_b = make_dataset(
      workspace.str() + "/rmat_b", "rmat_b",
      graph::RmatSource({.scale = quick ? 16u : 17u, .edge_factor = 16,
                         .seed = 20160523}),
      /*partitions=*/4);

  Json json;
  json.text("bench", "fig8_threads");
  json.text("mode", quick ? "quick" : "full");
  json.text("program", "bfs");
  json.open("graph");
  json.integer("vertices", rmat.meta.num_vertices);
  json.integer("edges", rmat.meta.num_edges);
  json.integer("partitions", rmat.partitions);
  json.close();

  part_a(json, rmat);

  double xstream_speedup = 0.0;
  double core_speedup = 0.0;
  part_b(json, rmat_b, /*chunk_bytes=*/128u << 10, xstream_speedup,
         core_speedup);

  std::cout << "\nscatter speedup at 4 threads vs 1 (compute-weighted): "
            << "xstream " << xstream_speedup << "x, fastbfs " << core_speedup
            << "x (target >= 1.5x)\n";
  json.open("headline");
  json.number("xstream_scatter_speedup_4t", xstream_speedup);
  json.number("fastbfs_scatter_speedup_4t", core_speedup);
  json.close();

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
