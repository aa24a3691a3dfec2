// Direction ablation — the PR 8 acceptance bench.
//
// Prices the direction-optimizing strategy (core.direction = topdown vs
// bottomup vs auto) on the FastBFS engine over per-role modelled HDDs.
// On the low-diameter graphs the bulky middle rounds should flip to
// bottom-up and the claimed-vertex short-circuit should retire most of
// the edge probes and update records; on the high-diameter grid the
// frontier never clears the beta growth gate, so auto must stay
// top-down for the whole run. Both headlines are CHECKed, not just
// reported: auto must flip on R-MAT and cut its emitted update records,
// cut probed edges by a real margin versus pure top-down (R-MAT in
// quick mode — the CI bar; twitter_like at full scale, where gated
// trimming erodes the rmat probe margin — see the CHECK comments), and
// auto on the grid must run zero bottom-up rounds while staying within
// noise of top-down's probe count (trim-stream timing is the only
// nondeterminism).
//
// Each arm also reports the edge device's read ops and seeks
// (edge_read_ops, edge_seeks), which show what the bottom-up reader's
// schedule costs a disk; they are recorded, not CHECKed.
//
// Every configuration is verified bit-identical against the in-memory
// reference inside run_bfs. Results land in BENCH_pr8.json (--out=FILE);
// --quick shrinks the graphs for CI.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "json_writer.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/temp_dir.hpp"
#include "metrics/table.hpp"

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using bench::Json;
using engine::Direction;

constexpr struct {
  const char* tag;
  Direction direction;
} kConfigs[] = {
    {"topdown", Direction::kTopDown},
    {"bottomup", Direction::kBottomUp},
    {"auto", Direction::kAuto},
};

double cut_vs(std::uint64_t value, std::uint64_t baseline) {
  if (baseline == 0) return 0.0;
  return 1.0 - static_cast<double>(value) / static_cast<double>(baseline);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr8.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: ablation_direction [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  metrics::print_experiment_header(
      "Direction ablation — bottom-up vs top-down scatter",
      "core.direction topdown/bottomup/auto through the FastBFS engine; "
      "auto must cut R-MAT BFS probes + update records, and must never "
      "flip on the high-diameter grid");

  TempDir workspace("ablation_direction");
  std::vector<bench::Dataset> datasets =
      bench::evaluation_datasets(workspace.str(), quick);
  // The adversarial dataset: a 2-D lattice's frontier is a diagonal
  // wavefront, a sliver of the vertices at every round — the case the
  // beta gate exists for.
  const std::uint32_t side = quick ? 128 : 512;
  datasets.push_back(bench::make_dataset(
      workspace.str() + "/grid", "grid",
      graph::Grid2dSource({.width = side, .height = side}),
      /*partitions=*/4));

  Json json;
  json.text("bench", "ablation_direction");
  json.text("mode", quick ? "quick" : "full");
  json.text("program", "bfs");
  json.text("system", "fastbfs");

  metrics::Table table({"dataset", "config", "iters", "bu", "scanned",
                        "probed", "probe cut", "updates", "upd cut",
                        "edges rd", "edge ops", "edge seeks", "upd wr"});
  double rmat_probe_cut = 0.0;
  double rmat_update_cut = 0.0;
  double twitter_probe_cut = 0.0;
  double twitter_update_cut = 0.0;
  std::uint32_t rmat_auto_bottomup = 0;
  std::uint32_t grid_auto_bottomup = 0;
  std::uint64_t grid_topdown_probed = 0;
  std::uint64_t grid_auto_probed = 0;
  for (const bench::Dataset& ds : datasets) {
    json.open(ds.name);
    json.integer("vertices", ds.meta.num_vertices);
    json.integer("edges", ds.meta.num_edges);
    json.integer("partitions", ds.partitions);
    std::uint64_t topdown_probed = 0;
    std::uint64_t topdown_updates = 0;
    for (const auto& cfg : kConfigs) {
      bench::SystemOptions options;
      options.kind = engine::Kind::kCore;
      options.direction = cfg.direction;
      const metrics::RunStats run = bench::run_bfs(ds, options);

      const std::uint64_t probed = run.edges_probed();
      const std::uint64_t updates = run.updates_emitted();
      std::uint64_t edge_read_ops = 0;
      std::uint64_t edge_seeks = 0;
      for (const auto& it : run.iterations) {
        edge_read_ops += it.stats.role_io(io::Role::kEdges).read_ops;
        edge_seeks += it.stats.role_io(io::Role::kEdges).seeks;
      }
      if (cfg.direction == Direction::kTopDown) {
        topdown_probed = probed;
        topdown_updates = updates;
      }
      const double probe_cut = cut_vs(probed, topdown_probed);
      const double update_cut = cut_vs(updates, topdown_updates);
      if (ds.name == "rmat" && cfg.direction == Direction::kAuto) {
        rmat_probe_cut = probe_cut;
        rmat_update_cut = update_cut;
        rmat_auto_bottomup = run.bottomup_rounds();
      }
      if (ds.name == "twitter_like" && cfg.direction == Direction::kAuto) {
        twitter_probe_cut = probe_cut;
        twitter_update_cut = update_cut;
      }
      if (ds.name == "grid") {
        if (cfg.direction == Direction::kTopDown) {
          grid_topdown_probed = probed;
        } else if (cfg.direction == Direction::kAuto) {
          grid_auto_bottomup = run.bottomup_rounds();
          grid_auto_probed = probed;
        }
      }

      table.add_row(
          {ds.name, cfg.tag, std::to_string(run.iterations.size()),
           std::to_string(run.bottomup_rounds()),
           metrics::Table::count(run.edges_scanned()),
           metrics::Table::count(probed), metrics::Table::percent(probe_cut),
           metrics::Table::count(updates),
           metrics::Table::percent(update_cut),
           metrics::Table::bytes(run.bytes_read(io::Role::kEdges)),
           metrics::Table::count(edge_read_ops),
           metrics::Table::count(edge_seeks),
           metrics::Table::bytes(run.bytes_written(io::Role::kUpdates))});

      json.open(cfg.tag);
      json.integer("iterations", run.iterations.size());
      json.integer("bottomup_rounds", run.bottomup_rounds());
      json.integer("edges_scanned", run.edges_scanned());
      json.integer("edges_probed", probed);
      json.integer("updates_emitted", updates);
      json.integer("edge_bytes_read", run.bytes_read(io::Role::kEdges));
      json.integer("edge_read_ops", edge_read_ops);
      json.integer("edge_seeks", edge_seeks);
      json.integer("update_bytes_written",
                   run.bytes_written(io::Role::kUpdates));
      json.integer("bytes_moved", run.device_bytes_moved());
      json.number("probe_cut_vs_topdown", probe_cut);
      json.number("update_cut_vs_topdown", update_cut);
      json.close();
    }
    json.close();
  }
  table.print();

  std::cout << "\nrmat auto probe cut vs topdown: " << rmat_probe_cut * 100.0
            << "%, update cut: " << rmat_update_cut * 100.0
            << "% over " << rmat_auto_bottomup << " bottom-up rounds\n";
  json.open("headline");
  json.number("rmat_probe_cut", rmat_probe_cut);
  json.number("rmat_update_cut", rmat_update_cut);
  json.number("twitter_probe_cut", twitter_probe_cut);
  json.number("twitter_update_cut", twitter_update_cut);
  json.integer("rmat_bottomup_rounds", rmat_auto_bottomup);
  json.integer("grid_bottomup_rounds", grid_auto_bottomup);
  json.close();

  // The acceptance bars. R-MAT: the model must actually flip and the
  // flip must pay, by a conservative floor under the measured margins.
  // Grid: the beta gate must hold — zero bottom-up rounds, and probe
  // counts within trim-timing noise of forced top-down.
  FB_CHECK_MSG(rmat_auto_bottomup > 0,
               "auto never flipped to bottom-up on rmat");
  FB_CHECK_MSG(rmat_update_cut >= 0.25,
               "auto cut rmat update records by only "
                   << rmat_update_cut * 100.0 << "%, expected >= 25%");
  if (quick) {
    // The CI bar (quick mode is what perf-smoke runs).
    FB_CHECK_MSG(rmat_probe_cut >= 0.25,
                 "auto cut rmat probed edges by only "
                     << rmat_probe_cut * 100.0 << "%, expected >= 25%");
  } else {
    // At full scale the gated trim has many more rounds to shrink the
    // top-down scan, while bottom-up must price the full untrimmed
    // transposed view — on rmat the byte model then (correctly, by
    // total bytes moved) flips only the peak round, so the probe cut
    // collapses even though the update cut holds. The scale-stable
    // probe floor lives on twitter_like, whose longer dense middle
    // keeps the flip profitable at any size; trimming bottom-up's
    // inputs too is the ROADMAP follow-up that would restore the rmat
    // margin here.
    FB_CHECK_MSG(twitter_probe_cut >= 0.25,
                 "auto cut twitter_like probed edges by only "
                     << twitter_probe_cut * 100.0 << "%, expected >= 25%");
    FB_CHECK_MSG(twitter_update_cut >= 0.25,
                 "auto cut twitter_like update records by only "
                     << twitter_update_cut * 100.0 << "%, expected >= 25%");
  }
  FB_CHECK_MSG(grid_auto_bottomup == 0,
               "auto ran " << grid_auto_bottomup
                           << " bottom-up rounds on the high-diameter grid");
  const double grid_drift =
      grid_topdown_probed == 0
          ? 0.0
          : static_cast<double>(grid_auto_probed > grid_topdown_probed
                                    ? grid_auto_probed - grid_topdown_probed
                                    : grid_topdown_probed - grid_auto_probed) /
                static_cast<double>(grid_topdown_probed);
  FB_CHECK_MSG(grid_drift <= 0.05,
               "auto drifted " << grid_drift * 100.0
                               << "% from topdown probes on the grid");

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
