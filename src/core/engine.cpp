#include "core/engine.hpp"

#include "common/log.hpp"

namespace fbfs::core {

namespace {

/// "<graph>.P<partitions>.<kind><p>": the partition count is part of the
/// name, so runs over different partitionings never share a file.
std::string run_file_name(const graph::PartitionedGraph& pg,
                          const char* kind, std::uint32_t p) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         "." + kind + std::to_string(p);
}

}  // namespace

std::string state_file_name(const graph::PartitionedGraph& pg,
                            std::uint32_t p) {
  return run_file_name(pg, "state", p);
}

std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p) {
  return run_file_name(pg, "upd", p);
}

std::string stay_file_name(const graph::PartitionedGraph& pg,
                           std::uint32_t p) {
  return run_file_name(pg, "stay", p);
}

namespace detail {

void log_iteration(const char* program, const metrics::IterationStats& stats) {
  FB_LOG_DEBUG << program << " round " << stats.iteration << ": "
               << stats.partitions_scattered << " partitions scattered ("
               << stats.partitions_skipped << " skipped), "
               << stats.updates_emitted << " updates, " << stats.activated
               << " active next, " << stats.seconds << " s";
}

void remove_run_files(const graph::PartitionedGraph& pg,
                      const io::StoragePlan& plan) {
  const auto remove_if_present = [](io::Device& device,
                                    const std::string& name) {
    if (device.exists(name)) device.remove(name);
  };
  for (std::uint32_t p = 0; p < pg.layout.num_partitions(); ++p) {
    plan.state().remove(state_file_name(pg, p));
    remove_if_present(plan.updates(), update_file_name(pg, p));
    remove_if_present(plan.stay(), stay_file_name(pg, p));
  }
}

void log_trim_resolution(const char* program, std::uint32_t partition,
                         io::AsyncWriter::StreamState state) {
  const char* outcome = "?";
  switch (state) {
    case io::AsyncWriter::StreamState::active:
      outcome = "active";
      break;
    case io::AsyncWriter::StreamState::completed:
      outcome = "committed";
      break;
    case io::AsyncWriter::StreamState::cancelled:
      outcome = "cancelled";
      break;
    case io::AsyncWriter::StreamState::failed:
      outcome = "failed";
      break;
  }
  FB_LOG_DEBUG << program << " trim of partition " << partition << ": "
               << outcome;
}

}  // namespace detail

}  // namespace fbfs::core
