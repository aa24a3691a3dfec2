// Range partitioner: fans one edge file out to P per-partition edge
// files in a single streaming pass.
//
// Partition p owns the contiguous vertex range [begin(p), end(p)); an
// edge belongs to the partition that owns its *source* (scatter streams
// a partition's out-edges — X-Stream's layout). The pass reads the
// source file through the prefetching reader (compute the fan-out while
// the next buffer is in flight) and stages each partition's edges in a
// private write buffer so the device sees few, large appends per
// partition file.
#pragma once

#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::graph {

/// Contiguous, balanced vertex ranges: the first (num_vertices mod P)
/// partitions hold one extra vertex.
class PartitionLayout {
 public:
  PartitionLayout() = default;
  PartitionLayout(std::uint64_t num_vertices, std::uint32_t num_partitions);

  std::uint64_t num_vertices() const { return num_vertices_; }
  std::uint32_t num_partitions() const { return num_partitions_; }

  VertexId begin(std::uint32_t p) const;
  VertexId end(std::uint32_t p) const { return begin(p + 1); }
  std::uint64_t size(std::uint32_t p) const { return end(p) - begin(p); }

  /// The partition owning vertex `v` (O(1) arithmetic, no table).
  std::uint32_t owner(VertexId v) const;

 private:
  std::uint64_t num_vertices_ = 0;
  std::uint32_t num_partitions_ = 0;
  std::uint64_t base_ = 0;   // vertices per partition, rounded down
  std::uint64_t extra_ = 0;  // partitions holding base_ + 1
};

struct PartitionedGraph {
  GraphMeta meta;
  PartitionLayout layout;
  std::vector<std::uint64_t> edges_per_partition;

  /// On-device name of partition p's edge file.
  std::string partition_file(std::uint32_t p) const;
};

struct PartitionOptions {
  /// Split across the input reader and the P per-partition writers.
  std::size_t buffer_bytes = 4 << 20;
  io::ReaderMode reader = io::ReaderMode::kPrefetch;
};

/// One streaming pass: `meta.edge_file()` -> P partition files, both on
/// the plan's edges device, verifying the sidecar checksum en route.
PartitionedGraph partition_edge_list(const io::StoragePlan& plan,
                                     const GraphMeta& meta,
                                     std::uint32_t num_partitions,
                                     const PartitionOptions& options = {});

/// Single-device convenience wrapper.
inline PartitionedGraph partition_edge_list(io::Device& device,
                                            const GraphMeta& meta,
                                            std::uint32_t num_partitions,
                                            std::size_t buffer_bytes = 4
                                                                       << 20) {
  return partition_edge_list(io::StoragePlan::single(device), meta,
                             num_partitions, {.buffer_bytes = buffer_bytes});
}

/// The transposed (in-edge) partition view the bottom-up direction
/// scans: partition q's transposed file holds every edge whose
/// DESTINATION q owns, sorted by destination — dst-sorted so a
/// bottom-up scan sees each target's in-edges as one contiguous run and
/// can stop probing a vertex the moment it is claimed. Built once from
/// the partition files (one fan-out pass + one per-partition sort) and
/// cached on the plan's edge device behind a `.tmeta` sidecar; later
/// runs at the same partition count load the counts and skip the build.
/// Fixed record count per transposed-file block: the granularity of the
/// frontier-density-aware bottom-up reader (pull_partition may skip a
/// block — never read its bytes — when its whole dst range is already
/// claimed) and of the pull determinism windows. 4096 edges = 32 KiB.
inline constexpr std::uint64_t kTransposedBlockRecords = 4096;

/// Destination range of one fixed-size block of a transposed file:
/// block i covers records [i * kTransposedBlockRecords, ...), whose
/// dst-sorted destinations all lie in [first_dst, last_dst].
struct TransposedBlock {
  VertexId first_dst = 0;
  VertexId last_dst = 0;
};
static_assert(sizeof(TransposedBlock) == 8);

struct TransposedView {
  /// In-edges landing in each partition's vertex range. Sums to
  /// meta.num_edges.
  std::vector<std::uint64_t> in_edges_per_partition;
  /// Per-partition block index over the transposed files (persisted in
  /// the `.tindex<q>` files; ceil(count / kTransposedBlockRecords)
  /// entries each).
  std::vector<std::vector<TransposedBlock>> blocks;
};

/// On-device name of partition q's transposed (in-edge) file.
std::string transposed_file(const PartitionedGraph& pg, std::uint32_t q);
/// On-device name of partition q's transposed block index.
std::string transposed_index_file(const PartitionedGraph& pg,
                                  std::uint32_t q);
/// The cache sidecar recording per-partition counts + checksum.
std::string transposed_meta_file(const PartitionedGraph& pg);

/// Builds (or loads, on a cache hit) the transposed view of `pg` on the
/// plan's edges device. The fan-out pass verifies the edge multiset
/// checksum against the sidecar; the cache is valid only when the
/// `.tmeta` sidecar matches the graph and every transposed file has its
/// recorded size.
TransposedView build_transposed_view(const io::StoragePlan& plan,
                                     const PartitionedGraph& pg,
                                     const PartitionOptions& options = {});

}  // namespace fbfs::graph
