// Fig. 5 — input data amount, plus the §IV-B overall-data-amount claim.
//
// Paper: FastBFS reads 65.2%–78.1% less input than X-Stream, and even
// counting the stay writes it introduces, moves 47.7%–60.4% less data
// overall. Here both systems run BFS over per-role modelled HDDs, so
// the byte counters — where the cut must show — are exact and
// independent of FASTBFS_TIME_SCALE. The companion shape check: on the
// x-stream baseline, update bytes dominate everything else written
// (BFS state is tiny; the update stream IS the write traffic), which
// is why trimming the read side is where FastBFS wins.
//
// Both systems are verified bit-identical against the in-memory
// reference inside run_bfs. Results land in BENCH_pr6_fig5.json
// (--out=FILE); --quick shrinks the graphs for CI.
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

std::uint64_t edge_input_read(const metrics::RunStats& run) {
  // What the scatter phase pulled from its inputs: original partition
  // files plus (FastBFS only) the trimmed stay streams replacing them.
  return run.bytes_read(io::Role::kEdges) + run.bytes_read(io::Role::kStay);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr6_fig5.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: fig5_input_data [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  metrics::print_experiment_header(
      "Fig. 5 — input data amount (per-role HDD models)",
      "FastBFS reads 65.2%-78.1% less input than X-Stream and moves "
      "47.7%-60.4% less data overall, stay writes included");

  TempDir workspace("fig5_input_data");
  const std::vector<bench::Dataset> datasets =
      bench::evaluation_datasets(workspace.str(), quick);

  Json json;
  json.text("bench", "fig5_input_data");
  json.text("mode", quick ? "quick" : "full");
  json.text("program", "bfs");

  metrics::Table table({"dataset", "xstream read", "fastbfs read",
                        "input cut", "xs moved", "fb moved", "overall cut",
                        "xs update write share", "fb+codec upd wr",
                        "upd write cut"});
  double sum_input_cut = 0.0;
  double sum_overall_cut = 0.0;
  double rmat_update_share = 0.0;
  double rmat_update_write_cut = 0.0;
  for (const bench::Dataset& ds : datasets) {
    bench::SystemOptions options;
    options.kind = engine::Kind::kXstream;
    const metrics::RunStats xs = bench::run_bfs(ds, options);
    options.kind = engine::Kind::kCore;
    const metrics::RunStats fb = bench::run_bfs(ds, options);
    // The PR 7 configuration: same trimming engine, update and stay
    // streams under the auto codec with the staging sieve on.
    options.update_codec = io::codec::Policy::kAuto;
    options.sieve_updates = true;
    const metrics::RunStats fbc = bench::run_bfs(ds, options);

    const std::uint64_t xs_read = edge_input_read(xs);
    const std::uint64_t fb_read = edge_input_read(fb);
    const std::uint64_t xs_moved = xs.device_bytes_moved();
    const std::uint64_t fb_moved = fb.device_bytes_moved();
    const double input_cut =
        1.0 - static_cast<double>(fb_read) / static_cast<double>(xs_read);
    const double overall_cut =
        1.0 - static_cast<double>(fb_moved) / static_cast<double>(xs_moved);
    // The Fig. 5 write-side shape: updates dominate what x-stream
    // writes (state write-back is the only other write traffic).
    const double update_share =
        static_cast<double>(xs.bytes_written(io::Role::kUpdates)) /
        static_cast<double>(xs.device_bytes_written());
    // And the PR 7 lever against that shape: codec + sieve vs the raw
    // fastbfs run's update-stream writes.
    const double update_write_cut =
        1.0 - static_cast<double>(fbc.bytes_written(io::Role::kUpdates)) /
                  static_cast<double>(fb.bytes_written(io::Role::kUpdates));
    sum_input_cut += input_cut;
    sum_overall_cut += overall_cut;
    if (ds.name == "rmat") {
      rmat_update_share = update_share;
      rmat_update_write_cut = update_write_cut;
    }

    table.add_row({ds.name, metrics::Table::bytes(xs_read),
                   metrics::Table::bytes(fb_read),
                   metrics::Table::percent(input_cut),
                   metrics::Table::bytes(xs_moved),
                   metrics::Table::bytes(fb_moved),
                   metrics::Table::percent(overall_cut),
                   metrics::Table::percent(update_share),
                   metrics::Table::bytes(
                       fbc.bytes_written(io::Role::kUpdates)),
                   metrics::Table::percent(update_write_cut)});

    json.open(ds.name);
    json.integer("vertices", ds.meta.num_vertices);
    json.integer("edges", ds.meta.num_edges);
    json.integer("partitions", ds.partitions);
    for (const auto* run : {&xs, &fb, &fbc}) {
      json.open(run == &xs ? "xstream"
                           : (run == &fb ? "fastbfs" : "fastbfs_codec"));
      json.integer("iterations", run->iterations.size());
      json.integer("edge_input_bytes_read", edge_input_read(*run));
      json.integer("bytes_read", run->device_bytes_read());
      json.integer("bytes_written", run->device_bytes_written());
      json.integer("bytes_moved", run->device_bytes_moved());
      json.integer("update_bytes_written",
                   run->bytes_written(io::Role::kUpdates));
      json.integer("stay_bytes_written",
                   run->bytes_written(io::Role::kStay));
      json.integer("updates_sieved", run->updates_sieved());
      json.close();
    }
    json.number("input_cut", input_cut);
    json.number("overall_cut", overall_cut);
    json.number("xstream_update_write_share", update_share);
    json.number("codec_update_write_cut", update_write_cut);
    json.close();
  }
  table.print();

  const double n = static_cast<double>(datasets.size());
  std::cout << "\nmean input cut " << (sum_input_cut / n) * 100.0
            << "%, mean overall cut " << (sum_overall_cut / n) * 100.0
            << "%; rmat update write share "
            << rmat_update_share * 100.0 << "%; rmat codec update write cut "
            << rmat_update_write_cut * 100.0 << "%\n";
  json.open("headline");
  json.number("mean_input_cut", sum_input_cut / n);
  json.number("mean_overall_cut", sum_overall_cut / n);
  json.number("rmat_update_write_share", rmat_update_share);
  json.number("rmat_codec_update_write_cut", rmat_update_write_cut);
  json.close();

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
