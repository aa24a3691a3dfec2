#include "metrics/device_usage.hpp"

#include <algorithm>

namespace fbfs::metrics {

namespace {

/// Fills the distinct-device totals from stats.io: each device is
/// counted once, whichever roles share it.
void total_distinct_devices(const io::StoragePlan& plan,
                            IterationStats& stats) {
  stats.device_bytes_read = 0;
  stats.device_bytes_written = 0;
  stats.device_busy_ns = 0;
  stats.device_model_busy_ns = 0;
  stats.max_device_busy_ns = 0;
  std::array<const io::Device*, io::kNumRoles> seen{};
  std::size_t num_seen = 0;
  for (std::size_t r = 0; r < io::kNumRoles; ++r) {
    const io::Device* dev = &plan.device(static_cast<io::Role>(r));
    if (std::find(seen.begin(), seen.begin() + num_seen, dev) !=
        seen.begin() + num_seen) {
      continue;
    }
    seen[num_seen++] = dev;
    const RoleIo& io = stats.io[r];
    stats.device_bytes_read += io.bytes_read;
    stats.device_bytes_written += io.bytes_written;
    stats.device_busy_ns += io.busy_ns;
    stats.device_model_busy_ns += io.model_busy_ns;
    stats.max_device_busy_ns = std::max(stats.max_device_busy_ns, io.busy_ns);
  }
}

}  // namespace

void capture_iteration_io(const io::StoragePlan& plan,
                          const RoleSnapshots& before, IterationStats& stats) {
  const RoleSnapshots now = plan.stats_snapshot();
  for (std::size_t r = 0; r < io::kNumRoles; ++r) {
    const io::IoStatsSnapshot d = now[r].delta(before[r]);
    RoleIo& io = stats.io[r];
    io.bytes_read = d.bytes_read;
    io.bytes_written = d.bytes_written;
    io.read_ops = d.read_ops;
    io.write_ops = d.write_ops;
    io.seeks = d.seeks;
    io.busy_ns = d.busy_ns;
    io.model_busy_ns = d.model_busy_ns;
  }
  total_distinct_devices(plan, stats);
}

void capture_epilogue_io(const io::StoragePlan& plan,
                         const RoleSnapshots& call_start,
                         std::span<const IterationStats> rows,
                         IterationStats& epilogue) {
  // Counters only grow, so the call's delta minus every row's is exactly
  // the I/O between and around the rows.
  capture_iteration_io(plan, call_start, epilogue);
  for (const IterationStats& row : rows) {
    for (std::size_t r = 0; r < io::kNumRoles; ++r) {
      RoleIo& io = epilogue.io[r];
      const RoleIo& in_row = row.io[r];
      io.bytes_read -= in_row.bytes_read;
      io.bytes_written -= in_row.bytes_written;
      io.read_ops -= in_row.read_ops;
      io.write_ops -= in_row.write_ops;
      io.seeks -= in_row.seeks;
      io.busy_ns -= in_row.busy_ns;
      io.model_busy_ns -= in_row.model_busy_ns;
    }
  }
  total_distinct_devices(plan, epilogue);
}

}  // namespace fbfs::metrics
