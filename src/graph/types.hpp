// Core graph value types. Edge files are flat arrays of these PODs —
// io::RecordWriter/RecordReader move them, the .meta sidecar
// (edge_list.hpp) records which record type a file holds.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/rng.hpp"

namespace fbfs::graph {

/// Vertex ids are dense [0, num_vertices). 32 bits cover every scaled
/// dataset in DESIGN.md (max 2^20 vertices) with the paper's 8-byte
/// edge record.
using VertexId = std::uint32_t;

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  bool operator==(const Edge&) const = default;
};
static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 8);

/// Generators and importers push edges through one of these.
using EdgeSink = std::function<void(const Edge&)>;

/// Order-independent digest term of one edge. Summing the terms mod
/// 2^64 gives a *multiset* checksum of an edge file: invariant under
/// reordering (shards merged in any order, partitions concatenated in
/// any order) but sensitive to any lost, duplicated, or altered edge.
inline std::uint64_t edge_digest(const Edge& e) {
  std::uint64_t packed =
      (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
  return splitmix64_next(packed);
}

}  // namespace fbfs::graph
