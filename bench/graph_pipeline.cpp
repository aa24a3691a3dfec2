// Perf smoke for the graph-build pipeline (ROADMAP item 1 / ISSUE 2):
//
//   1. parallel R-MAT generation at 1/2/4 threads, shards spread over
//      four modelled HDDs — the multi-disk build box; reports the
//      thread-scaling of the shard fan-out phase;
//   2. the range partitioner's fan-out-and-sort throughput.
//
// The host has no slow disk, so the device models provide the I/O cost:
// the generation section first measures its pure-compute rate, then
// picks the model's time_scale so modelled I/O time is 3x the compute
// time (the regime the shard fan-out targets), and the partition disk
// is scaled the same way. That keeps the compute/I/O ratio — and so the
// overlap headroom — stable across host speeds, instead of baking in a
// wall-clock budget that a faster host would quietly degrade.
//
// Results land in BENCH_pr2.json (override with --out=...); --quick
// shrinks the graph for CI.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "json_writer.hpp"

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "storage/reader_factory.hpp"

namespace {

using namespace fbfs;       // NOLINT(build/namespaces)
using namespace fbfs::graph;  // NOLINT(build/namespaces)

constexpr double kMb = 1e6;  // decimal MB, matching DeviceModel

double mb_per_s(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / kMb / seconds : 0.0;
}

/// Copies `name` between device roots without charging either model
/// (an unthrottled Device view onto each root).
void copy_uncharged(io::Device& from, io::Device& to,
                    const std::string& name) {
  io::Device src(from.root_dir(), io::DeviceModel::unthrottled());
  io::Device dst(to.root_dir(), io::DeviceModel::unthrottled());
  auto out = dst.open(name, /*truncate=*/true);
  std::vector<std::byte> buf(1 << 20);
  auto reader = io::open_stream_reader(src, name, {.buffer_bytes = buf.size()});
  for (std::size_t got = reader->read(buf.data(), buf.size()); got > 0;
       got = reader->read(buf.data(), buf.size())) {
    out->append(buf.data(), got);
  }
}

struct GenRun {
  unsigned threads = 0;
  ParallelBuildReport report;
};

using bench::Json;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr2.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: graph_pipeline [--quick] [--out=FILE]\n";
      return 2;
    }
  }

  RmatParams rmat;
  rmat.scale = quick ? 18 : 20;
  rmat.edge_factor = 16;
  rmat.seed = 20160523;  // the paper's conference date
  const RmatSource source(rmat);
  const std::uint64_t edge_bytes = source.num_edges() * sizeof(Edge);

  TempDir workspace("graph_pipeline");
  io::Device target(workspace.str() + "/target",
                    io::DeviceModel::unthrottled());

  Json json;
  json.text("bench", "graph_pipeline");
  json.text("mode", quick ? "quick" : "full");
  json.open("rmat");
  json.integer("scale", rmat.scale);
  json.integer("edge_factor", rmat.edge_factor);
  json.integer("edges", source.num_edges());
  json.integer("bytes", edge_bytes);
  json.close();

  // ---- 1. generation: compute-only rate, then modelled multi-disk runs.
  Stopwatch sw;
  std::uint64_t sunk = 0;
  source.generate([&](const Edge& e) { sunk += e.src ^ e.dst; });
  const double cpu_gen_s = sw.seconds();
  FB_CHECK_MSG(sunk != 0, "generator produced all-zero edges");

  // Scale the HDD model so total modelled shard I/O (seeks + transfer)
  // costs 3x the compute: I/O-bound at one thread, compute-bound once
  // four shard disks run concurrently.
  const io::DeviceModel hdd = io::DeviceModel::hdd();
  const std::uint64_t num_chunks =
      (source.num_edges() + kChunkTargetEdges - 1) / kChunkTargetEdges;
  const double unscaled_io_s =
      static_cast<double>(edge_bytes) / (hdd.write_mb_s * kMb) +
      static_cast<double>(num_chunks) * static_cast<double>(hdd.seek_ns) * 1e-9;
  const double gen_scale = 3.0 * cpu_gen_s / unscaled_io_s;

  io::DeviceModel shard_model = hdd;
  shard_model.time_scale = gen_scale;
  std::vector<std::unique_ptr<io::Device>> shard_devices;
  std::vector<io::Device*> shard_ptrs;
  for (int d = 0; d < 4; ++d) {
    shard_devices.push_back(std::make_unique<io::Device>(
        workspace.str() + "/shard" + std::to_string(d), shard_model));
    shard_ptrs.push_back(shard_devices.back().get());
  }

  std::vector<GenRun> runs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelBuildOptions options;
    options.threads = threads;
    options.shard_devices = shard_ptrs;
    GenRun run;
    run.threads = threads;
    run.report = build_edge_list_parallel(
        target, "rmat_t" + std::to_string(threads), source, options);
    FB_CHECK_EQ(run.report.meta.checksum, runs.empty()
                                              ? run.report.meta.checksum
                                              : runs[0].report.meta.checksum);
    runs.push_back(run);
    std::cout << "generate threads=" << threads << ": "
              << run.report.generate_seconds << " s fan-out + "
              << run.report.merge_seconds << " s merge ("
              << mb_per_s(edge_bytes, run.report.generate_seconds)
              << " MB/s fan-out)\n";
  }
  const double gen_speedup =
      runs[0].report.generate_seconds / runs[2].report.generate_seconds;
  std::cout << "generation speedup 1->4 threads: " << gen_speedup << "x\n";

  json.open("generation");
  json.number("time_scale", gen_scale);
  json.number("cpu_only_seconds", cpu_gen_s);
  json.integer("shard_devices", shard_ptrs.size());
  json.integer("chunks", runs[0].report.num_chunks);
  for (const GenRun& run : runs) {
    json.open("threads_" + std::to_string(run.threads));
    json.number("generate_seconds", run.report.generate_seconds);
    json.number("merge_seconds", run.report.merge_seconds);
    json.number("generate_mb_per_s",
                mb_per_s(edge_bytes, run.report.generate_seconds));
    json.close();
  }
  json.number("speedup_1_to_4", gen_speedup);
  json.close();

  const GraphMeta meta = runs[0].report.meta;

  // ---- 2. partition fan-out: one pass, read + P files written, on one
  // modelled HDD scaled the same way as the generation disks.
  io::DeviceModel part_model = hdd;
  part_model.time_scale = gen_scale;
  io::Device part_dev(workspace.str() + "/part", part_model);
  copy_uncharged(target, part_dev, meta.edge_file());

  const std::uint32_t P = 8;
  sw.restart();
  const PartitionedGraph pg = partition_edge_list(part_dev, meta, P);
  const double part_s = sw.seconds();
  const std::uint64_t moved =
      part_dev.stats().bytes_read() + part_dev.stats().bytes_written();
  std::cout << "partition P=" << P << ": " << part_s << " s, "
            << mb_per_s(moved, part_s) << " MB/s moved\n";

  json.open("partition");
  json.number("time_scale", gen_scale);
  json.integer("partitions", P);
  json.integer("bytes_moved", moved);
  json.number("seconds", part_s);
  json.number("mb_per_s", mb_per_s(moved, part_s));
  json.close();

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
