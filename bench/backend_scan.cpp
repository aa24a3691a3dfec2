// backend_scan — the PR 10 acceptance microbench (BENCH_pr10.json).
//
// Two workloads across the backend matrix:
//
// 1. Streaming scan (informative table): stream a big file through the
//    storage layer's sequential reader on
//      * modelled-unthrottled — the accounting-only token bucket, i.e.
//        the cost of the storage layer itself (page-cache memcpy speed),
//      * real-buffered        — real backend, O_DIRECT off,
//      * real-io_uring        — real backend, O_DIRECT + io_uring,
//    each reading synchronously, one buffer at a time. Sequential
//    streams saturate most devices at qd=1 — this table says what the
//    storage stack costs, not what depth buys.
//
// 2. Scattered block reads (the CHECKed headline): random 64 KB
//    positional reads — the shape the block-coalesced bottom-up reader
//    and the chunked scatter readers actually submit — one at a time
//    synchronously (qd=1) vs batched through Device::read_batch as one
//    ring submission (qd=8). With io_uring available, the qd=8 batch
//    must beat qd=1 synchronous by >= 1.2x — keeping the queue full
//    has to buy real device parallelism, or the ring plumbing is dead
//    weight. Where io_uring is unavailable the check is SKIPPED and
//    the skip is recorded in the JSON (CI stays green, the gap stays
//    visible).
//
// Results land in BENCH_pr10.json (--out=FILE); --quick shrinks the
// file for CI.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "json_writer.hpp"
#include "metrics/table.hpp"
#include "storage/device.hpp"
#include "storage/reader_factory.hpp"

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using bench::Json;

constexpr std::size_t kReaderBuffer = 1 << 20;
// The scattered workload reads 64 KB blocks — the block-coalesced
// reader's op size, and small enough that per-op latency is a real
// cost at qd=1 (the regime where a full queue actually pays).
constexpr std::size_t kScatterOpBytes = 64 << 10;

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 2654435761u) >> 24);
  }
  return out;
}

void fill_file(io::Device& dev, const std::string& name,
               std::uint64_t bytes) {
  const auto chunk = pattern(4 << 20);
  auto f = dev.open(name, /*truncate=*/true);
  for (std::uint64_t off = 0; off < bytes; off += chunk.size()) {
    f->append(chunk.data(), chunk.size());
  }
  f->sync();
}

struct Arm {
  const char* tag;
  io::BackendOptions backend;
};

/// Streams `name` start to finish through the sequential reader;
/// best-of-2 MB/s.
double measure_scan(io::Device& dev, const std::string& name,
                    std::uint64_t bytes) {
  double best = 0.0;
  std::vector<std::byte> sink(kReaderBuffer);
  for (int pass = 0; pass < 2; ++pass) {
    Stopwatch sw;
    auto reader =
        io::open_stream_reader(dev, name, {.buffer_bytes = kReaderBuffer});
    std::uint64_t total = 0;
    for (std::size_t got = reader->read(sink.data(), sink.size()); got > 0;
         got = reader->read(sink.data(), sink.size())) {
      total += got;
    }
    FB_CHECK_MSG(total == bytes,
                 "scan returned " << total << " of " << bytes << " bytes");
    best = std::max(best,
                    static_cast<double>(bytes) / 1e6 / sw.seconds());
  }
  return best;
}

/// Random 64 KB positional reads over the whole file, either one
/// synchronous read_at at a time (qd=1) or in read_batch groups of
/// `qd` (one ring submission each). Best-of-2 MB/s.
double measure_scatter(io::Device& dev, io::File& file, std::uint64_t bytes,
                       unsigned qd) {
  const std::uint64_t num_ops = bytes / kScatterOpBytes;
  std::vector<std::uint64_t> order(num_ops);
  for (std::uint64_t i = 0; i < num_ops; ++i) order[i] = i * kScatterOpBytes;
  std::mt19937_64 rng(19);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::vector<std::byte>> bufs(qd);
  for (auto& b : bufs) b.resize(kScatterOpBytes);
  double best = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    Stopwatch sw;
    if (qd == 1) {
      for (std::uint64_t i = 0; i < num_ops; ++i) {
        FB_CHECK_MSG(file.read_at(order[i], bufs[0].data(),
                                  kScatterOpBytes) == kScatterOpBytes,
                     "scattered read short at offset " << order[i]);
      }
    } else {
      for (std::uint64_t i = 0; i < num_ops; i += qd) {
        const unsigned n =
            static_cast<unsigned>(std::min<std::uint64_t>(qd, num_ops - i));
        std::vector<io::ReadRequest> reqs;
        reqs.reserve(n);
        for (unsigned k = 0; k < n; ++k) {
          reqs.push_back(
              {&file, order[i + k], bufs[k].data(), kScatterOpBytes, 0});
        }
        dev.read_batch(reqs);
        for (unsigned k = 0; k < n; ++k) {
          FB_CHECK_MSG(reqs[k].got == kScatterOpBytes,
                       "scattered read short at offset " << reqs[k].offset);
        }
      }
    }
    best = std::max(
        best, static_cast<double>(num_ops * kScatterOpBytes) / 1e6 /
                  sw.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr10.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: backend_scan [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  const std::uint64_t bytes = (quick ? 128ull : 1024ull) << 20;

  metrics::print_experiment_header(
      "Backend scan — modelled vs real, synchronous vs ring-batched",
      "one streaming scan per backend arm, then scattered 64 KB block "
      "reads; the qd=8 ring batch must beat qd=1 synchronous reads >= "
      "1.2x when io_uring is available");

  TempDir workspace("backend_scan");

  const Arm arms[] = {
      {"modelled-unthrottled", {.kind = io::BackendKind::kModelled}},
      {"real-buffered-qd1",
       {.kind = io::BackendKind::kReal, .direct_io = false,
        .use_uring = false, .queue_depth = 1}},
      {"real-uring-qd1", {.kind = io::BackendKind::kReal, .queue_depth = 1}},
  };

  Json json;
  json.text("bench", "backend_scan");
  json.text("mode", quick ? "quick" : "full");
  json.integer("file_mb", bytes >> 20);

  metrics::Table table({"arm", "backend", "scan MB/s"});
  bool uring_available = false;
  json.open("arms");
  for (const Arm& arm : arms) {
    io::Device dev(workspace.str() + "/" + arm.tag,
                   io::DeviceModel::unthrottled(), arm.backend);
    fill_file(dev, "scan", bytes);
    const double mbs = measure_scan(dev, "scan", bytes);
    const std::string mode = dev.backend_description();
    table.add_row({arm.tag, mode,
                   std::to_string(static_cast<std::uint64_t>(mbs))});
    json.open(arm.tag);
    json.text("backend", mode);
    json.number("scan_mb_s", mbs);
    json.close();
    if (std::strcmp(arm.tag, "real-uring-qd1") == 0) {
      uring_available = mode.find("uring") != std::string::npos;
    }
  }
  json.close();
  table.print();

  // The CHECKed workload: scattered 64 KB block reads (the coalesced
  // readers' shape), one-at-a-time synchronous vs one ring batch per 8.
  double qd1_sync = 0.0;
  double qd8_ring = 0.0;
  {
    io::Device dev(workspace.str() + "/scatter",
                   io::DeviceModel::unthrottled(),
                   {.kind = io::BackendKind::kReal, .queue_depth = 8});
    fill_file(dev, "blocks", bytes);
    auto f = dev.open("blocks");
    qd1_sync = measure_scatter(dev, *f, bytes, 1);
    qd8_ring = measure_scatter(dev, *f, bytes, 8);
    metrics::Table scatter_table(
        {"scattered 64 KB reads", "MB/s", "vs qd=1"});
    char speedup_str[32];
    std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx",
                  qd1_sync > 0.0 ? qd8_ring / qd1_sync : 0.0);
    scatter_table.add_row(
        {"qd=1 synchronous",
         std::to_string(static_cast<std::uint64_t>(qd1_sync)), "1.00x"});
    scatter_table.add_row(
        {"qd=8 ring batch",
         std::to_string(static_cast<std::uint64_t>(qd8_ring)), speedup_str});
    scatter_table.print();
  }
  json.open("scattered");
  json.integer("op_kb", kScatterOpBytes >> 10);
  json.number("qd1_sync_mb_s", qd1_sync);
  json.number("qd8_ring_mb_s", qd8_ring);
  json.close();

  json.open("headline");
  if (uring_available) {
    const double speedup = qd1_sync > 0.0 ? qd8_ring / qd1_sync : 0.0;
    std::cout << "\nqd=8 ring batch vs qd=1 synchronous (scattered): "
              << speedup << "x\n";
    json.number("qd8_over_qd1", speedup);
    json.text("qd_scaling_check", "checked");
    json.close();
    std::ofstream out(out_path);
    FB_CHECK_MSG(out.good(), "cannot write " << out_path);
    out << json.str();
    out.close();
    std::cout << "wrote " << out_path << "\n";
    // The acceptance bar: a full queue must buy real device
    // parallelism over one-at-a-time synchronous reads.
    FB_CHECK_MSG(speedup >= 1.2,
                 "qd=8 ring batch only " << speedup
                     << "x over qd=1 synchronous reads, expected >= 1.2x");
  } else {
    std::cout << "\nqd scaling check SKIPPED: io_uring unavailable\n";
    json.number("qd8_over_qd1", 0.0);
    json.text("qd_scaling_check", "skipped: io_uring unavailable");
    json.close();
    std::ofstream out(out_path);
    FB_CHECK_MSG(out.good(), "cannot write " << out_path);
    out << json.str();
    out.close();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
