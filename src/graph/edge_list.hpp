// Binary edge lists and their `.meta` sidecar.
//
// A graph named `g` on a Device is two files: `g.edges`, a flat array
// of Edge records, and `g.meta`, a key-value sidecar (common::Config
// format) recording vertex count, edge count, record size, generator
// seed, directedness, and the multiset checksum of the records.
// Everything downstream — partitioner, engines, benches — loads the
// sidecar instead of guessing from file sizes, and can verify the
// checksum while streaming.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "storage/device.hpp"

namespace fbfs::graph {

struct GraphMeta {
  std::string name;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t record_size = sizeof(Edge);
  std::uint64_t seed = 0;
  bool undirected = false;  // edge list is symmetric (both directions present)
  std::uint64_t checksum = 0;  // sum of edge_digest over all records

  std::string edge_file() const { return name + ".edges"; }
  std::string meta_file() const { return name + ".meta"; }
  std::uint64_t edge_bytes() const { return num_edges * record_size; }
};

/// Writes `meta` to its sidecar file on `device` (atomic via Config's
/// tmp+rename).
void save_meta(io::Device& device, const GraphMeta& meta);

/// Loads the sidecar of graph `name`; CHECKs that the edge file exists
/// and its size matches num_edges * record_size.
GraphMeta load_meta(io::Device& device, const std::string& name);

/// Runs `generate` once, streaming every emitted edge to `name.edges`
/// through one buffered writer, then writes the sidecar. The serial
/// reference path; build_edge_list_parallel (generators.hpp) produces
/// byte-identical output for chunked sources.
GraphMeta write_generated(
    io::Device& device, const std::string& name, std::uint64_t num_vertices,
    std::uint64_t seed, bool undirected,
    const std::function<void(const EdgeSink&)>& generate);

/// Streams the whole edge file into memory, verifying count and checksum
/// against the sidecar.
std::vector<Edge> read_all_edges(io::Device& device, const GraphMeta& meta);

}  // namespace fbfs::graph
