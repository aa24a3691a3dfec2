// Trimming ablation (paper §II-C): which trim mechanism buys what, and
// where eager trimming backfires.
//
// BFS runs on four modelled HDDs — one per storage role, so every
// per-role byte counter is exact — over two graph families:
//
//   * R-MAT: fast-converging scale-free graph. Most vertices settle in
//     a round or two, so most edges go dead early and trimming should
//     slash the per-round edge-input volume (the paper's headline win).
//   * 2-D grid: high-diameter lattice. Frontiers are thin (~one wave of
//     the lattice per round), so eager trimming rewrites nearly the
//     whole partition every round for a sliver of savings — the §II-C3
//     failure mode the trim triggers exist to gate off.
//
// Every configuration is checked bit-identical against the in-memory
// reference before its numbers are reported: a config that changes a
// result is a bug, not a data point.
//
// Wall-clock numbers follow the device models (scaled by
// FASTBFS_TIME_SCALE, which CI sets to keep quick mode cheap); the byte
// counters — where the CHECKed headline bars must show — are exact and
// scale-independent. Results land in BENCH_pr4.json (--out=FILE);
// --quick shrinks both graphs for CI.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "json_writer.hpp"

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

struct Config {
  std::string key;    // json section name
  std::string label;  // table row
  engine::Kind kind = engine::Kind::kCore;  // kXstream: untrimmed baseline
  engine::Options options;
};

struct RunStats {
  double wall_seconds = 0.0;
  std::uint32_t iterations = 0;
  std::uint64_t edge_input_read = 0;  // edges + stay roles, bytes read
  std::uint64_t total_read = 0;
  std::uint64_t total_written = 0;
  std::uint64_t stay_edges_written = 0;
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint32_t partitions_skipped = 0;
};

struct Dataset {
  std::string name;
  graph::GraphMeta meta;
  std::uint32_t partitions = 0;
  std::string root;                          // per-role device roots
  std::vector<BfsProgram::State> reference;  // inmem ground truth
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

RunStats run_config(const Dataset& ds, const Config& cfg) {
  // One modelled HDD per role: edge_input_read is exactly the bytes the
  // scatter phase pulled from the partition/stay inputs.
  const io::DeviceModel hdd = io::DeviceModel::hdd();
  io::Device edges(ds.root + "/edges", hdd);
  io::Device state(ds.root + "/state", hdd);
  io::Device updates(ds.root + "/updates", hdd);
  io::Device stay(ds.root + "/stay", hdd);
  io::StoragePlan plan = io::StoragePlan::single(edges)
                             .assign(io::Role::kState, state)
                             .assign(io::Role::kUpdates, updates)
                             .assign(io::Role::kStay, stay);
  // ds.pg is pure metadata; the partition files it names were laid down
  // once (uncharged) at setup and are re-read here through the model.
  const graph::PartitionedGraph& pg = ds.pg;

  // Budget 0 for every config: the bench measures the out-of-core
  // regime, every state and update file on its device.
  engine::Options options = cfg.options;
  options.memory_budget_bytes = 0;
  RunStats stats;
  Stopwatch sw;
  const auto result =
      engine::run(cfg.kind, pg, plan, BfsProgram{.root = 0}, options);
  stats.wall_seconds = sw.seconds();
  stats.iterations = result.iterations;
  stats.stay_edges_written = result.stay_edges_written;
  stats.trims_started = result.trims_started;
  stats.trims_committed = result.trims_committed;
  stats.trims_cancelled = result.trims_cancelled;
  for (const auto& it : result.per_iteration) {
    stats.partitions_skipped += it.partitions_skipped;
  }

  const std::vector<BfsProgram::State>& states = result.states;
  FB_CHECK_MSG(states.size() == ds.reference.size() &&
                   std::memcmp(states.data(), ds.reference.data(),
                               states.size() * sizeof(BfsProgram::State)) == 0,
               cfg.label << " on " << ds.name
                         << " diverged from the in-memory reference");

  stats.edge_input_read =
      edges.stats().bytes_read() + stay.stats().bytes_read();
  for (const io::Device* dev : {&edges, &state, &updates, &stay}) {
    stats.total_read += dev->stats().bytes_read();
    stats.total_written += dev->stats().bytes_written();
  }
  return stats;
}

std::vector<Config> rmat_matrix() {
  std::vector<Config> configs;
  configs.push_back({"xstream", "x-stream baseline (no trim)",
                     engine::Kind::kXstream, {}});

  Config c;
  c.options.trim = false;
  configs.push_back(
      {"core_no_trim", "core, trimming off", engine::Kind::kCore, c.options});

  c = Config{};  // eager: the engine default, trims every scan
  configs.push_back(
      {"core_eager", "core, eager trim", engine::Kind::kCore, c.options});

  c = Config{};
  c.options.trim_start_round = 2;
  configs.push_back(
      {"core_delayed", "core, trim from round 2", engine::Kind::kCore,
       c.options});

  c = Config{};
  c.options.trim_min_frontier_fraction = 0.05;
  configs.push_back(
      {"core_frontier_gate", "core, trim at >=5% frontier",
       engine::Kind::kCore, c.options});

  c = Config{};
  c.options.trim_min_dead_fraction = 0.25;
  configs.push_back(
      {"core_dead_gate", "core, trim at >=25% dead", engine::Kind::kCore,
       c.options});

  c = Config{};
  c.options.grace_timeout_seconds = 0.0;
  configs.push_back(
      {"core_zero_grace", "core, eager + zero grace", engine::Kind::kCore,
       c.options});
  return configs;
}

std::vector<Config> grid_matrix() {
  std::vector<Config> configs;
  configs.push_back({"xstream", "x-stream baseline (no trim)",
                     engine::Kind::kXstream, {}});

  Config c;
  c.options.trim = false;
  configs.push_back(
      {"core_no_trim", "core, trimming off", engine::Kind::kCore, c.options});

  c = Config{};
  configs.push_back(
      {"core_eager", "core, eager trim", engine::Kind::kCore, c.options});

  // The §II-C3 guard: thin frontiers + little death per round must keep
  // the trimmer quiet, so the gated config tracks the no-trim numbers.
  c = Config{};
  c.options.trim_min_dead_fraction = 0.25;
  c.options.trim_min_frontier_fraction = 0.02;
  configs.push_back({"core_gated", "core, gated (25% dead & 2% frontier)",
                     engine::Kind::kCore, c.options});
  return configs;
}

void report(Json& json, const Dataset& ds, const std::vector<Config>& configs,
            std::vector<RunStats>& out) {
  std::cout << "\n--- " << ds.name << ": " << ds.meta.num_vertices
            << " vertices, " << ds.meta.num_edges << " edges, P="
            << ds.partitions << " ---\n";
  std::printf("  %-38s %9s %5s %12s %12s %11s %7s %7s %6s\n", "config",
              "time(s)", "iters", "edge-read", "total-write", "stay-edges",
              "commit", "cancel", "skips");
  json.open(ds.name);
  json.integer("vertices", ds.meta.num_vertices);
  json.integer("edges", ds.meta.num_edges);
  json.integer("partitions", ds.partitions);
  for (const Config& cfg : configs) {
    const RunStats s = run_config(ds, cfg);
    out.push_back(s);
    std::printf("  %-38s %9.3f %5u %12llu %12llu %11llu %7u %7u %6u\n",
                cfg.label.c_str(), s.wall_seconds, s.iterations,
                static_cast<unsigned long long>(s.edge_input_read),
                static_cast<unsigned long long>(s.total_written),
                static_cast<unsigned long long>(s.stay_edges_written),
                s.trims_committed, s.trims_cancelled, s.partitions_skipped);
    json.open(cfg.key);
    json.number("wall_seconds", s.wall_seconds);
    json.integer("iterations", s.iterations);
    json.integer("edge_input_bytes_read", s.edge_input_read);
    json.integer("total_bytes_read", s.total_read);
    json.integer("total_bytes_written", s.total_written);
    json.integer("stay_edges_written", s.stay_edges_written);
    json.integer("trims_started", s.trims_started);
    json.integer("trims_committed", s.trims_committed);
    json.integer("trims_cancelled", s.trims_cancelled);
    json.integer("partitions_skipped", s.partitions_skipped);
    json.close();
  }
  json.close();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr4.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: ablation_trimming [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();

  TempDir workspace("ablation_trimming");
  const Dataset rmat = make_dataset(
      workspace.str() + "/rmat", "rmat",
      graph::RmatSource({.scale = quick ? 14u : 18u, .edge_factor = 16,
                         .seed = 20160523}),
      /*partitions=*/4);
  const std::uint32_t side = quick ? 64 : 128;
  const Dataset grid = make_dataset(
      workspace.str() + "/grid", "grid",
      graph::Grid2dSource({.width = side, .height = side}),
      /*partitions=*/2);

  Json json;
  json.text("bench", "ablation_trimming");
  json.text("mode", quick ? "quick" : "full");
  json.text("program", "bfs");

  std::vector<RunStats> rmat_stats;
  report(json, rmat, rmat_matrix(), rmat_stats);
  std::vector<RunStats> grid_stats;
  report(json, grid, grid_matrix(), grid_stats);

  // Headline ratios: eager trim vs the untrimmed x-stream baseline on
  // R-MAT (index 2 vs 0), and the gated config vs no-trim on the grid
  // (index 3 vs 1, both core so the comparison isolates the trigger).
  const double rmat_cut =
      1.0 - static_cast<double>(rmat_stats[2].edge_input_read) /
                static_cast<double>(rmat_stats[0].edge_input_read);
  const double grid_gated_ratio =
      static_cast<double>(grid_stats[3].edge_input_read) /
      static_cast<double>(grid_stats[1].edge_input_read);
  std::cout << "\nrmat: eager trimming cuts edge-input bytes read by "
            << rmat_cut * 100.0 << "% vs the x-stream baseline\n"
            << "grid: gated trimming reads "
            << grid_gated_ratio * 100.0
            << "% of the no-trim edge-input bytes (100% = no regression)\n";
  json.open("headline");
  json.number("rmat_eager_edge_read_cut_vs_xstream", rmat_cut);
  json.number("grid_gated_edge_read_ratio_vs_no_trim", grid_gated_ratio);
  json.close();

  // The acceptance bars, in both modes. R-MAT: eager trimming must cut
  // the edge input by a floor under the measured margin (0.52 quick,
  // 0.60 full). Grid: the gated triggers must keep the trimmer from
  // costing edge reads over no-trim (the §II-C3 guard).
  FB_CHECK_MSG(rmat_cut >= 0.45,
               "eager trimming cut rmat edge-input bytes by only "
                   << rmat_cut * 100.0 << "%, expected >= 45%");
  FB_CHECK_MSG(grid_gated_ratio <= 1.0,
               "gated trimming read " << grid_gated_ratio * 100.0
                                      << "% of the no-trim grid edge input, "
                                         "expected <= 100%");

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
