// Compressed sparse row adjacency, the in-memory reference layout.
//
// Built from an edge list (in memory or streamed off a Device) by a
// stable counting sort: out-edges are grouped by source, and edges of
// one source keep their edge-list order. inmem::run scans it edge by
// edge with the same (src, dst) pairs the streaming engine reads from
// its partition files, so programs (program.hpp) see identical inputs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "storage/device.hpp"

namespace fbfs::graph {

class Csr {
 public:
  Csr() = default;

  /// Groups `edges` by source over [0, num_vertices); every endpoint
  /// must be < num_vertices (CHECK).
  Csr(std::uint64_t num_vertices, std::span<const Edge> edges);

  std::uint64_t num_vertices() const { return offsets_.size() - 1; }
  std::uint64_t num_edges() const { return targets_.size(); }

  std::uint32_t out_degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Out-neighbours of `v`, in edge-list order.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size num_vertices + 1
  std::vector<VertexId> targets_;
};

/// One sequential scan of `meta`'s edge file into a Csr, verifying the
/// sidecar checksum en route.
Csr build_csr(io::Device& device, const GraphMeta& meta);

}  // namespace fbfs::graph
