// Range partitioner: fans one edge file out to P per-partition edge
// files, then sorts each file by source.
//
// Partition p owns the contiguous vertex range [begin(p), end(p)); an
// edge belongs to the partition that owns its *source* (scatter streams
// a partition's out-edges — X-Stream's layout). The fan-out pass reads
// the source file sequentially and stages each partition's edges in a
// private write buffer so the device sees few, large appends per
// partition file. A second pass loads one partition at a time, sorts it
// stably by source and rewrites it, and indexes its fixed-size blocks by
// their first and last source: the index that lets a top-down scan skip
// blocks holding no active source. The transposed view below is the
// same two passes keyed on the destination.
#pragma once

#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
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

/// Fixed record count per block of a sorted edge file — a partition file
/// or a transposed file — and so the granularity of both block indexes:
/// a scan reads or skips whole blocks, and the bottom-up pull windows its
/// determinism on them. 4096 edges = 32 KiB.
inline constexpr std::uint64_t kBlockRecords = 4096;

/// Key range of one block of a sorted edge file: block i covers records
/// [i * kBlockRecords, ...), whose keys — sources in a partition file,
/// destinations in a transposed file — all lie in [first, last].
struct EdgeBlock {
  VertexId first = 0;
  VertexId last = 0;
};
static_assert(sizeof(EdgeBlock) == 8);

/// The endpoint a sorted edge file is keyed on.
enum class EdgeKey { kSrc, kDst };

/// Sorts `edges` stably by `key`; every key must lie in [key_begin,
/// key_end). A counting sort on key - key_begin: one pass when the range
/// spans at most 2^16 keys, else a least-significant-digit radix sort in
/// two 16-bit digits; a digit every record shares is skipped. Its
/// scratch is one copy of `edges` plus count tables of at most 2^16
/// entries each.
void stable_sort_edges(std::vector<Edge>& edges, EdgeKey key,
                       VertexId key_begin, std::uint64_t key_end);

struct PartitionedGraph {
  GraphMeta meta;
  PartitionLayout layout;
  std::vector<std::uint64_t> edges_per_partition;
  /// Block index of each partition file (stably sorted by source), built
  /// by partition_edge_list and held in memory. Empty: no index, and
  /// every scan reads whole partition files — the X-Stream preset's
  /// view (engine/api.hpp).
  std::vector<std::vector<EdgeBlock>> blocks;

  /// On-device name of partition p's edge file.
  std::string partition_file(std::uint32_t p) const;
};

struct PartitionOptions {
  /// Split across the input reader and the P per-partition writers.
  std::size_t buffer_bytes = 4 << 20;
};

/// `meta.edge_file()` -> P partition files, both on the plan's edges
/// device: one streaming fan-out pass that verifies the sidecar checksum
/// en route, then a per-partition pass that sorts each file stably by
/// source (one partition in RAM at a time) and fills `blocks`.
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
/// runs at the same partition count load the counts and the block index
/// and skip the build.
struct TransposedView {
  /// In-edges landing in each partition's vertex range. Sums to
  /// meta.num_edges.
  std::vector<std::uint64_t> in_edges_per_partition;
  /// Per-partition block index over the transposed files (keyed on the
  /// destination; pull_partition skips a block whose whole range is
  /// claimed). Persisted, every partition's in turn, in one `.tindex`
  /// file.
  std::vector<std::vector<EdgeBlock>> blocks;
};

/// On-device name of partition q's transposed (in-edge) file.
std::string transposed_file(const PartitionedGraph& pg, std::uint32_t q);
/// On-device name of the transposed view's block index: every
/// partition's entries, partition 0 first.
std::string transposed_index_file(const PartitionedGraph& pg);
/// The cache sidecar recording per-partition counts, the file layout and
/// the index digest.
std::string transposed_meta_file(const PartitionedGraph& pg);

/// Builds (or loads, on a cache hit) the transposed view of `pg` on the
/// plan's edges device. The fan-out pass verifies the edge multiset
/// checksum against the sidecar; the cache is valid only when the
/// `.tmeta` sidecar matches the graph and this build's file layout,
/// every transposed file and the index have their recorded sizes, and
/// the index matches its recorded digest. A cache hit reads the index
/// with one request.
TransposedView build_transposed_view(const io::StoragePlan& plan,
                                     const PartitionedGraph& pg,
                                     const PartitionOptions& options = {});

}  // namespace fbfs::graph
