#include "metrics/run_stats.hpp"

#include <algorithm>

#include "metrics/table.hpp"

namespace fbfs::metrics {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kScatter:
      return "scatter";
    case Phase::kShuffleFlush:
      return "shuffle-flush";
    case Phase::kGather:
      return "gather";
    case Phase::kApply:
      return "apply";
    case Phase::kTrimResolve:
      return "trim-resolve";
  }
  return "?";
}

std::uint64_t RunStats::bytes_read(io::Role role) const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.role_io(role).bytes_read;
  return total;
}

std::uint64_t RunStats::bytes_written(io::Role role) const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) {
    total += it.stats.role_io(role).bytes_written;
  }
  return total;
}

std::uint64_t RunStats::device_bytes_read() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.device_bytes_read;
  return total;
}

std::uint64_t RunStats::device_bytes_written() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.device_bytes_written;
  return total;
}

std::uint64_t RunStats::updates_emitted() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.updates_emitted;
  return total;
}

std::uint64_t RunStats::updates_sieved() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.updates_sieved;
  return total;
}

std::uint64_t RunStats::edges_scanned() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.edges_scanned;
  return total;
}

std::uint64_t RunStats::edges_probed() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.edges_probed;
  return total;
}

std::uint32_t RunStats::bottomup_rounds() const {
  std::uint32_t total = 0;
  for (const auto& it : iterations) total += it.stats.bottomup ? 1 : 0;
  return total;
}

std::uint64_t RunStats::edge_bytes_skipped() const {
  std::uint64_t total = 0;
  for (const auto& it : iterations) total += it.stats.edge_bytes_skipped;
  return total;
}

std::array<std::uint64_t, 3> RunStats::update_codec_bytes() const {
  std::array<std::uint64_t, 3> total{};
  for (const auto& it : iterations) {
    for (std::size_t f = 0; f < total.size(); ++f) {
      total[f] += it.stats.update_codec_bytes[f];
    }
  }
  return total;
}

double RunStats::modelled_iowait() const {
  double busy = 0.0;
  double wall = 0.0;
  for (const auto& it : iterations) {
    busy += static_cast<double>(it.stats.max_device_busy_ns) * 1e-9;
    wall += it.stats.seconds;
  }
  if (wall <= 0.0) return 0.0;
  return std::min(1.0, busy / wall);
}

LatencyHistogram RunStats::phase_total(Phase p) const {
  LatencyHistogram total;
  for (const auto& it : iterations) total.merge(it.phase_hist(p));
  return total;
}

void RunStats::print(std::ostream& os) const {
  os << "run" << (label.empty() ? "" : " " + label) << ": "
     << iterations.size() << " iterations, "
     << Table::count(ops.edges_scanned) << " edges scanned, "
     << Table::count(ops.updates_emitted) << " updates ("
     << Table::count(ops.updates_sieved) << " sieved), "
     << Table::seconds(wall_seconds) << "\n";
  // The two extra columns ("qact" live queries, "skip rd" edge bytes the
  // block-skipping scans never read) only render when a row used them —
  // runs that use neither keep the familiar 16-column table.
  bool batched = false;
  for (const auto& it : iterations) {
    batched |= it.stats.queries_active > 0 ||
               it.stats.edge_bytes_skipped > 0;
  }
  std::vector<std::string> header = {
      "iter", "dir", "scat", "skip", "updates", "sieved", "active", "sec",
      "edges rd", "upd wr", "u raw", "u bmp", "u vint", "stay wr", "trims",
      "iowait"};
  if (batched) {
    header.insert(header.begin() + 7, "qact");
    header.insert(header.begin() + 10, "skip rd");
  }
  Table table(header);
  for (const auto& it : iterations) {
    const IterationStats& s = it.stats;
    std::vector<std::string> row = {
        std::to_string(s.iteration), s.bottomup ? "bu" : "td",
        std::to_string(s.partitions_scattered),
        std::to_string(s.partitions_skipped), Table::count(s.updates_emitted),
        Table::count(s.updates_sieved), Table::count(s.activated),
        Table::seconds(s.seconds),
        Table::bytes(s.role_io(io::Role::kEdges).bytes_read +
                     s.role_io(io::Role::kStay).bytes_read),
        Table::bytes(s.role_io(io::Role::kUpdates).bytes_written),
        Table::bytes(s.update_codec_bytes[0]),
        Table::bytes(s.update_codec_bytes[1]),
        Table::bytes(s.update_codec_bytes[2]),
        Table::bytes(s.role_io(io::Role::kStay).bytes_written),
        std::to_string(s.trims_started), Table::percent(s.modelled_iowait())};
    if (batched) {
      row.insert(row.begin() + 7, std::to_string(s.queries_active));
      row.insert(row.begin() + 10, Table::bytes(s.edge_bytes_skipped));
    }
    table.add_row(row);
  }
  table.print(os);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const LatencyHistogram hist = phase_total(static_cast<Phase>(p));
    if (hist.empty()) continue;
    os << "  phase " << to_string(static_cast<Phase>(p)) << ": "
       << hist.summary() << "\n";
  }
}

namespace {

void write_histogram(Json& json, const LatencyHistogram& hist) {
  json.integer("count", hist.count());
  json.integer("sum_ns", hist.sum());
  json.integer("min_ns", hist.min());
  json.integer("max_ns", hist.max());
  json.integer("p50_ns", hist.percentile(0.5));
  json.integer("p95_ns", hist.percentile(0.95));
  json.integer("p99_ns", hist.percentile(0.99));
}

}  // namespace

void RunStats::write_json(Json& json) const {
  json.integer("iterations", iterations.size());
  json.number("wall_seconds", wall_seconds);
  json.integer("edges_scanned", ops.edges_scanned);
  json.integer("edges_probed", ops.edges_probed);
  json.integer("updates_emitted", ops.updates_emitted);
  json.integer("updates_sieved", ops.updates_sieved);
  json.integer("bottomup_rounds", bottomup_rounds());
  if (edge_bytes_skipped() > 0) {
    json.integer("edge_bytes_skipped", edge_bytes_skipped());
  }
  if (ops.queries_converged > 0) {
    json.integer("queries_converged", ops.queries_converged);
  }
  json.integer("partitions_scattered", ops.partitions_scattered);
  json.integer("partitions_skipped", ops.partitions_skipped);
  json.integer("bytes_read", device_bytes_read());
  json.integer("bytes_written", device_bytes_written());
  for (std::size_t r = 0; r < io::kNumRoles; ++r) {
    const io::Role role = static_cast<io::Role>(r);
    json.integer(std::string(io::to_string(role)) + "_bytes_read",
                 bytes_read(role));
    json.integer(std::string(io::to_string(role)) + "_bytes_written",
                 bytes_written(role));
  }
  {
    const std::array<std::uint64_t, 3> codec = update_codec_bytes();
    json.integer("update_bytes_raw", codec[0]);
    json.integer("update_bytes_bitmap", codec[1]);
    json.integer("update_bytes_varint", codec[2]);
  }
  json.number("modelled_iowait", modelled_iowait());
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const LatencyHistogram hist = phase_total(static_cast<Phase>(p));
    if (hist.empty()) continue;
    json.open(std::string("phase_") + to_string(static_cast<Phase>(p)));
    write_histogram(json, hist);
    json.close();
  }
  for (const auto& it : iterations) {
    const IterationStats& s = it.stats;
    json.open("iter" + std::to_string(s.iteration));
    json.text("direction", s.bottomup ? "bottomup" : "topdown");
    json.integer("edges_scanned", s.edges_scanned);
    json.integer("edges_probed", s.edges_probed);
    if (s.edge_bytes_skipped > 0) {
      json.integer("edge_bytes_skipped", s.edge_bytes_skipped);
    }
    if (s.queries_active > 0) {
      json.integer("queries_active", s.queries_active);
      json.integer("frontier_mask_bits", s.frontier_mask_bits);
    }
    if (s.modelled_topdown_bytes > 0.0 || s.modelled_bottomup_bytes > 0.0) {
      json.number("modelled_topdown_bytes", s.modelled_topdown_bytes);
      json.number("modelled_bottomup_bytes", s.modelled_bottomup_bytes);
    }
    json.integer("updates_emitted", s.updates_emitted);
    json.integer("updates_sieved", s.updates_sieved);
    json.integer("update_bytes_raw", s.update_codec_bytes[0]);
    json.integer("update_bytes_bitmap", s.update_codec_bytes[1]);
    json.integer("update_bytes_varint", s.update_codec_bytes[2]);
    json.integer("activated", s.activated);
    json.number("seconds", s.seconds);
    json.integer("edge_input_bytes_read",
                 s.role_io(io::Role::kEdges).bytes_read +
                     s.role_io(io::Role::kStay).bytes_read);
    json.integer("update_bytes_written",
                 s.role_io(io::Role::kUpdates).bytes_written);
    json.integer("stay_bytes_written",
                 s.role_io(io::Role::kStay).bytes_written);
    json.integer("bytes_read", s.device_bytes_read);
    json.integer("bytes_written", s.device_bytes_written);
    json.integer("busy_ns", s.device_busy_ns);
    json.integer("max_device_busy_ns", s.max_device_busy_ns);
    json.number("modelled_iowait", s.modelled_iowait());
    if (s.trims_started + s.trims_committed + s.trims_cancelled +
            s.trims_failed >
        0) {
      json.integer("trims_started", s.trims_started);
      json.integer("trims_committed", s.trims_committed);
      json.integer("trims_cancelled", s.trims_cancelled);
      json.integer("trims_failed", s.trims_failed);
      json.integer("stay_edges_written", s.stay_edges_written);
    }
    json.close();
  }
}

}  // namespace fbfs::metrics
