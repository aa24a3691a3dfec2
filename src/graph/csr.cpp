#include "graph/csr.hpp"

#include "common/check.hpp"

namespace fbfs::graph {

Csr::Csr(std::uint64_t num_vertices, std::span<const Edge> edges) {
  offsets_.assign(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    FB_CHECK_LT(e.src, num_vertices);
    FB_CHECK_LT(e.dst, num_vertices);
    ++offsets_[e.src + 1];
  }
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    offsets_[v + 1] += offsets_[v];
  }
  targets_.resize(edges.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    targets_[cursor[e.src]++] = e.dst;
  }
}

Csr build_csr(io::Device& device, const GraphMeta& meta) {
  FB_CHECK_EQ(meta.record_size, sizeof(Edge));
  const std::vector<Edge> edges = read_all_edges(device, meta);
  return Csr(meta.num_vertices, edges);
}

}  // namespace fbfs::graph
