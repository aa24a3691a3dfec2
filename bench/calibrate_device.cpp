// calibrate_device — fits a DeviceModel to a real directory.
//
// The modelled backend's token bucket needs three numbers per disk:
// sequential read/write bandwidth and the per-operation seek cost.
// This tool measures all three on an actual filesystem through the
// real IoBackend (O_DIRECT + io_uring where available, with the same
// fallbacks the engines use), plus random-read bandwidth at several
// queue depths — the curve that says how much a deeper ring actually
// buys on this hardware.
//
//   calibrate_device [--dir=PATH] [--size-mb=N] [--quick] [--out=FILE]
//
// --dir defaults to a scoped temp directory (measuring the filesystem
// /tmp lives on); point it at a mount to calibrate that disk. The tool
// prints the fitted model as a ready-to-paste config snippet and emits
// the raw measurements as JSON (default BENCH_calibrate.json), with the
// fitted model's seek-equivalent bytes: the longest gap a bottom-up scan
// on this disk reads through rather than seeks over.
//
// Method:
//   * seq read/write: stream `--size-mb` in 4 MB ops, best-of-2 MB/s.
//   * seek: mean latency of 4 KB random direct reads minus the 4 KB
//     transfer time at the measured sequential bandwidth. Buffered
//     fallbacks (tmpfs) measure cache hits — the printed model says so.
//   * qd sweep: random 64 KB reads submitted through Device::read_batch
//     in groups of qd in {1, 2, 4, 8, 16}.
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

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using bench::Json;

constexpr std::size_t kSeqOpBytes = 4 << 20;
constexpr std::size_t kRandOpBytes = 64 << 10;
constexpr std::size_t kSeekOpBytes = 4 << 10;

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}

io::BackendOptions real_backend() {
  return {.kind = io::BackendKind::kReal};
}

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 2654435761u) >> 24);
  }
  return out;
}

/// Best-of-2 sequential write then read bandwidth over a fresh file.
struct SeqResult {
  double write_mb_s = 0.0;
  double read_mb_s = 0.0;
};

SeqResult measure_sequential(const std::string& dir, std::uint64_t bytes) {
  SeqResult r;
  const auto chunk = pattern(kSeqOpBytes);
  for (int pass = 0; pass < 2; ++pass) {
    io::Device dev(dir, io::DeviceModel::unthrottled(), real_backend());
    Stopwatch sw;
    auto f = dev.open("seq", /*truncate=*/true);
    for (std::uint64_t off = 0; off < bytes; off += chunk.size()) {
      f->append(chunk.data(), chunk.size());
    }
    f->sync();
    r.write_mb_s = std::max(r.write_mb_s, mb(bytes) / sw.seconds());

    std::vector<std::byte> buf(kSeqOpBytes);
    Stopwatch rw;
    for (std::uint64_t off = 0; off < bytes; off += buf.size()) {
      FB_CHECK_MSG(f->read_at(off, buf.data(), buf.size()) == buf.size(),
                   "sequential read came up short at offset " << off);
    }
    r.read_mb_s = std::max(r.read_mb_s, mb(bytes) / rw.seconds());
    dev.remove("seq");
  }
  return r;
}

/// Mean + p50 latency of small random reads (the seek estimate input).
struct SeekResult {
  double mean_ns = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t ops = 0;
};

SeekResult measure_seek(const std::string& dir, std::uint64_t bytes,
                        std::uint64_t ops) {
  io::Device dev(dir, io::DeviceModel::unthrottled(), real_backend());
  const auto chunk = pattern(kSeqOpBytes);
  auto f = dev.open("seek", /*truncate=*/true);
  for (std::uint64_t off = 0; off < bytes; off += chunk.size()) {
    f->append(chunk.data(), chunk.size());
  }
  f->sync();

  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::uint64_t> dist(
      0, (bytes - kSeekOpBytes) / kSeekOpBytes);
  std::vector<std::byte> buf(kSeekOpBytes);
  const std::uint64_t before = dev.read_latency().count();
  for (std::uint64_t i = 0; i < ops; ++i) {
    f->read_at(dist(rng) * kSeekOpBytes, buf.data(), buf.size());
  }
  const metrics::LatencyHistogram lat = dev.read_latency();
  SeekResult r;
  r.ops = lat.count() - before;
  r.mean_ns = lat.mean();
  r.p50_ns = lat.percentile(0.5);
  dev.remove("seek");
  return r;
}

/// Random 64 KB reads at one queue depth, whole file once, via
/// Device::read_batch in groups of `qd`.
double measure_random_qd(io::Device& dev, io::File& file, std::uint64_t bytes,
                         unsigned qd) {
  const std::uint64_t num_ops = bytes / kRandOpBytes;
  std::vector<std::uint64_t> order(num_ops);
  for (std::uint64_t i = 0; i < num_ops; ++i) order[i] = i * kRandOpBytes;
  std::mt19937_64 rng(7);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::vector<std::byte>> bufs(qd);
  for (auto& b : bufs) b.resize(kRandOpBytes);
  Stopwatch sw;
  for (std::uint64_t i = 0; i < num_ops; i += qd) {
    const unsigned n =
        static_cast<unsigned>(std::min<std::uint64_t>(qd, num_ops - i));
    std::vector<io::ReadRequest> reqs;
    reqs.reserve(n);
    for (unsigned k = 0; k < n; ++k) {
      reqs.push_back({&file, order[i + k], bufs[k].data(), kRandOpBytes, 0});
    }
    dev.read_batch(reqs);
    for (unsigned k = 0; k < n; ++k) {
      FB_CHECK_MSG(reqs[k].got == kRandOpBytes,
                   "random read short at offset " << reqs[k].offset);
    }
  }
  return mb(num_ops * kRandOpBytes) / sw.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_calibrate.json";
  std::string dir;
  std::uint64_t size_mb = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--size-mb=", 10) == 0) {
      size_mb = std::strtoull(argv[i] + 10, nullptr, 10);
    } else {
      std::cerr << "usage: calibrate_device [--dir=PATH] [--size-mb=N] "
                   "[--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  if (size_mb == 0) size_mb = quick ? 64 : 512;
  const std::uint64_t bytes = size_mb << 20;

  std::unique_ptr<TempDir> scratch;
  if (dir.empty()) {
    scratch = std::make_unique<TempDir>("calibrate");
    dir = scratch->str() + "/disk";
  }

  metrics::print_experiment_header(
      "Device calibration — fit a DeviceModel to real hardware",
      "sequential/random bandwidth, seek cost, and the queue-depth curve "
      "measured through the real IoBackend");

  // What the backend actually negotiated on this filesystem.
  std::string backend_mode;
  {
    io::Device probe(dir, io::DeviceModel::unthrottled(), real_backend());
    backend_mode = probe.backend_description();
  }
  std::cout << "directory: " << dir << "\n";
  std::cout << "backend:   " << backend_mode << "\n";
  std::cout << "file size: " << size_mb << " MB\n\n";

  const SeqResult seq = measure_sequential(dir, bytes);
  const std::uint64_t seek_ops = quick ? 2000 : 8000;
  const SeekResult seek = measure_seek(dir, bytes, seek_ops);
  // Transfer component of one small read at the sequential bandwidth;
  // what is left of the mean latency is positioning cost.
  const double transfer_ns = seq.read_mb_s > 0.0
                                 ? mb(kSeekOpBytes) / seq.read_mb_s * 1e9
                                 : 0.0;
  const double seek_ns = std::max(0.0, seek.mean_ns - transfer_ns);
  io::DeviceModel fitted;
  fitted.name = "calibrated";
  fitted.read_mb_s = seq.read_mb_s;
  fitted.write_mb_s = seq.write_mb_s;
  fitted.seek_ns = static_cast<std::uint64_t>(seek_ns);

  metrics::Table qd_table({"queue depth", "random read MB/s", "vs qd=1"});
  std::vector<std::pair<unsigned, double>> qd_curve;
  {
    io::Device dev(dir, io::DeviceModel::unthrottled(), real_backend());
    const auto chunk = pattern(kSeqOpBytes);
    auto f = dev.open("rand", /*truncate=*/true);
    for (std::uint64_t off = 0; off < bytes; off += chunk.size()) {
      f->append(chunk.data(), chunk.size());
    }
    f->sync();
    double qd1 = 0.0;
    for (const unsigned qd : {1u, 2u, 4u, 8u, 16u}) {
      const double mbs = measure_random_qd(dev, *f, bytes, qd);
      if (qd == 1) qd1 = mbs;
      qd_curve.emplace_back(qd, mbs);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    qd1 > 0.0 ? mbs / qd1 : 0.0);
      qd_table.add_row({std::to_string(qd),
                        metrics::Table::bytes(
                            static_cast<std::uint64_t>(mbs * 1e6)) + "/s",
                        speedup});
    }
    dev.remove("rand");
  }
  qd_table.print();

  std::cout << "\nfitted DeviceModel (config snippet):\n"
            << "  # measured by calibrate_device on " << dir << "\n"
            << "  # backend: " << backend_mode << "\n"
            << "  device.read_mb_s = " << static_cast<std::uint64_t>(
                   seq.read_mb_s)
            << "\n"
            << "  device.write_mb_s = " << static_cast<std::uint64_t>(
                   seq.write_mb_s)
            << "\n"
            << "  device.seek_ns = " << fitted.seek_ns << "\n"
            << "  # seek_equivalent_bytes = " << fitted.seek_equivalent_bytes()
            << " (the longest gap bottom-up reads through)\n";
  if (backend_mode.find("buffered") != std::string::npos) {
    std::cout << "  # NOTE: O_DIRECT refused here — numbers include page "
                 "cache effects\n";
  }

  Json json;
  json.text("bench", "calibrate_device");
  json.text("mode", quick ? "quick" : "full");
  json.text("directory", dir);
  json.text("backend", backend_mode);
  json.integer("file_mb", size_mb);
  json.open("sequential");
  json.number("read_mb_s", seq.read_mb_s);
  json.number("write_mb_s", seq.write_mb_s);
  json.close();
  json.open("seek");
  json.integer("ops", seek.ops);
  json.number("mean_ns", seek.mean_ns);
  json.integer("p50_ns", seek.p50_ns);
  json.number("transfer_ns_at_seq_bw", transfer_ns);
  json.close();
  json.open("random_by_queue_depth");
  for (const auto& [qd, mbs] : qd_curve) {
    json.number("qd" + std::to_string(qd) + "_mb_s", mbs);
  }
  json.close();
  json.open("fitted_model");
  json.number("read_mb_s", seq.read_mb_s);
  json.number("write_mb_s", seq.write_mb_s);
  json.number("seek_ns", seek_ns);
  json.integer("seek_equivalent_bytes", fitted.seek_equivalent_bytes());
  json.close();

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
