// Device-usage capture: turns two StoragePlan counter snapshots into
// one iteration's I/O record — per-role deltas plus distinct-device
// totals (the modelled iowait inputs). Replaces the engines' ad-hoc
// capture_role_deltas, which only kept bytes.
#pragma once

#include <array>
#include <span>

#include "metrics/iteration_stats.hpp"
#include "storage/io_stats.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::metrics {

using RoleSnapshots = std::array<io::IoStatsSnapshot, io::kNumRoles>;

/// Fills stats.io with the per-role deltas accumulated since `before`
/// (a plan.stats_snapshot() taken at the start of the round), and the
/// distinct-device totals: each device is counted once however many
/// roles it serves, and max_device_busy_ns is the busiest device's
/// scaled busy delta — the modelled bottleneck spindle of the round.
void capture_iteration_io(const io::StoragePlan& plan,
                          const RoleSnapshots& before, IterationStats& stats);

/// Fills `epilogue.io` and its distinct-device totals with the I/O since
/// `call_start` (a snapshot from the start of an engine call) that no
/// row of `rows` holds. Called after the call's last I/O, it makes the
/// rows plus the epilogue sum to each role's counter deltas over the
/// call. max_device_busy_ns is the busiest device's share outside the
/// rows.
void capture_epilogue_io(const io::StoragePlan& plan,
                         const RoleSnapshots& call_start,
                         std::span<const IterationStats> rows,
                         IterationStats& epilogue);

}  // namespace fbfs::metrics
