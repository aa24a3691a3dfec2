// Codec/sieve ablation — the PR 7 acceptance bench.
//
// Fig. 5 showed the update stream dominating everything both engines
// write; this ablation prices the two levers this PR aims at it, on the
// FastBFS engine over per-role modelled HDDs: the on-disk update-stream
// codec (updates.codec = raw vs auto, stays following suit) and the
// scatter staging-buffer sieve, separately and combined. The headline —
// CHECKed, not just reported — is that codec+sieve cut the update bytes
// written on the R-MAT BFS by at least 30% versus raw.
//
// Every configuration is verified bit-identical against the in-memory
// reference inside run_bfs. Results land in BENCH_pr7.json (--out=FILE);
// --quick shrinks the graphs for CI.
#include <array>
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
using io::codec::Policy;

struct AblationConfig {
  const char* tag;
  Policy codec;
  bool sieve;
};

constexpr AblationConfig kConfigs[] = {
    {"raw", Policy::kRaw, false},
    {"raw+sieve", Policy::kRaw, true},
    {"auto", Policy::kAuto, false},
    {"auto+sieve", Policy::kAuto, true},
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr7.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: ablation_codec [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  metrics::print_experiment_header(
      "Codec/sieve ablation — update-stream write traffic",
      "updates.codec raw vs auto x sieve off/on through the FastBFS "
      "engine; codec+sieve must cut R-MAT BFS update bytes >= 30%");

  TempDir workspace("ablation_codec");
  const std::vector<bench::Dataset> datasets =
      bench::evaluation_datasets(workspace.str(), quick);

  Json json;
  json.text("bench", "ablation_codec");
  json.text("mode", quick ? "quick" : "full");
  json.text("program", "bfs");
  json.text("system", "fastbfs");

  metrics::Table table({"dataset", "config", "upd wr", "upd cut", "u raw",
                        "u bmp", "u vint", "sieved", "stay wr",
                        "total wr"});
  double rmat_combined_cut = 0.0;
  for (const bench::Dataset& ds : datasets) {
    json.open(ds.name);
    json.integer("vertices", ds.meta.num_vertices);
    json.integer("edges", ds.meta.num_edges);
    json.integer("partitions", ds.partitions);
    std::uint64_t raw_update_bytes = 0;
    for (const AblationConfig& cfg : kConfigs) {
      bench::SystemOptions options;
      options.kind = engine::Kind::kCore;
      options.update_codec = cfg.codec;
      options.sieve_updates = cfg.sieve;
      const metrics::RunStats run = bench::run_bfs(ds, options);

      const std::uint64_t update_bytes =
          run.bytes_written(io::Role::kUpdates);
      if (std::strcmp(cfg.tag, "raw") == 0) raw_update_bytes = update_bytes;
      // The cut divides by the raw arm's update-file bytes: without
      // them it is a NaN, which would fail the bar below for the wrong
      // reason.
      FB_CHECK_MSG(raw_update_bytes > 0,
                   ds.name << ": the raw arm wrote no update-file bytes to "
                              "price the cut against");
      const double update_cut =
          1.0 - static_cast<double>(update_bytes) /
                    static_cast<double>(raw_update_bytes);
      if (ds.name == "rmat" && std::strcmp(cfg.tag, "auto+sieve") == 0) {
        rmat_combined_cut = update_cut;
      }
      const std::array<std::uint64_t, 3> codec_bytes =
          run.update_codec_bytes();

      table.add_row({ds.name, cfg.tag, metrics::Table::bytes(update_bytes),
                     metrics::Table::percent(update_cut),
                     metrics::Table::bytes(codec_bytes[0]),
                     metrics::Table::bytes(codec_bytes[1]),
                     metrics::Table::bytes(codec_bytes[2]),
                     metrics::Table::count(run.updates_sieved()),
                     metrics::Table::bytes(
                         run.bytes_written(io::Role::kStay)),
                     metrics::Table::bytes(run.device_bytes_written())});

      json.open(cfg.tag);
      json.text("codec", io::codec::to_string(cfg.codec));
      json.integer("sieve", cfg.sieve ? 1 : 0);
      json.integer("iterations", run.iterations.size());
      json.integer("update_bytes_written", update_bytes);
      json.integer("update_bytes_raw", codec_bytes[0]);
      json.integer("update_bytes_bitmap", codec_bytes[1]);
      json.integer("update_bytes_varint", codec_bytes[2]);
      json.integer("updates_emitted", run.updates_emitted());
      json.integer("updates_sieved", run.updates_sieved());
      json.integer("stay_bytes_written",
                   run.bytes_written(io::Role::kStay));
      json.integer("bytes_written", run.device_bytes_written());
      json.integer("bytes_moved", run.device_bytes_moved());
      json.number("update_write_cut_vs_raw", update_cut);
      json.close();
    }
    json.close();
  }
  table.print();

  std::cout << "\nrmat auto+sieve update write cut vs raw: "
            << rmat_combined_cut * 100.0 << "%\n";
  json.open("headline");
  json.number("rmat_update_write_cut", rmat_combined_cut);
  json.close();

  // The PR's acceptance bar: the combined configuration must cut the
  // dominant write stream by nearly a third on the reference R-MAT.
  FB_CHECK_MSG(rmat_combined_cut >= 0.30,
               "codec+sieve cut rmat update bytes by only "
                   << rmat_combined_cut * 100.0 << "%, expected >= 30%");

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
