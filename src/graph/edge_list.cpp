#include "graph/edge_list.hpp"

#include "common/config.hpp"
#include "common/units.hpp"
#include "storage/stream.hpp"

namespace fbfs::graph {

namespace {
constexpr std::size_t kIoBuffer = 1 << 20;
}  // namespace

void save_meta(io::Device& device, const GraphMeta& meta) {
  Config cfg;
  cfg.set_str("name", meta.name);
  cfg.set_u64("num_vertices", meta.num_vertices);
  cfg.set_u64("num_edges", meta.num_edges);
  cfg.set_u64("record_size", meta.record_size);
  cfg.set_u64("seed", meta.seed);
  cfg.set_bool("undirected", meta.undirected);
  cfg.set_u64("checksum", meta.checksum);
  cfg.write_file(device.path(meta.meta_file()));
}

GraphMeta load_meta(io::Device& device, const std::string& name) {
  GraphMeta meta;
  meta.name = name;
  const Config cfg = Config::parse_file(device.path(meta.meta_file()));
  meta.num_vertices = cfg.get_u64("num_vertices");
  meta.num_edges = cfg.get_u64("num_edges");
  meta.record_size = static_cast<std::uint32_t>(cfg.get_u64("record_size"));
  meta.seed = cfg.get_u64("seed");
  meta.undirected = cfg.get_bool("undirected");
  meta.checksum = cfg.get_u64("checksum");
  FB_CHECK_MSG(device.exists(meta.edge_file()),
               "edge file missing for graph " << name);
  FB_CHECK_MSG(device.file_size(meta.edge_file()) == meta.edge_bytes(),
               "edge file of " << name << " is "
                               << device.file_size(meta.edge_file())
                               << " bytes, sidecar says "
                               << meta.edge_bytes());
  return meta;
}

GraphMeta write_generated(
    io::Device& device, const std::string& name, std::uint64_t num_vertices,
    std::uint64_t seed, bool undirected,
    const std::function<void(const EdgeSink&)>& generate) {
  GraphMeta meta;
  meta.name = name;
  meta.num_vertices = num_vertices;
  meta.seed = seed;
  meta.undirected = undirected;

  auto file = device.open(meta.edge_file(), /*truncate=*/true);
  io::RecordWriter<Edge> writer(*file, kIoBuffer);
  generate([&](const Edge& e) {
    FB_CHECK_MSG(e.src < num_vertices && e.dst < num_vertices,
                 "edge (" << e.src << ", " << e.dst
                          << ") outside vertex range of " << name << " ("
                          << num_vertices << " vertices)");
    writer.append(e);
    meta.checksum += edge_digest(e);
    ++meta.num_edges;
  });
  writer.flush();

  save_meta(device, meta);
  return meta;
}

std::vector<Edge> read_all_edges(io::Device& device, const GraphMeta& meta) {
  FB_CHECK_EQ(meta.record_size, sizeof(Edge));
  auto file = device.open(meta.edge_file());
  io::RecordReader<Edge> reader(*file, kIoBuffer);
  std::vector<Edge> edges;
  edges.reserve(meta.num_edges);
  std::uint64_t checksum = 0;
  for (auto batch = reader.next_batch(); !batch.empty();
       batch = reader.next_batch()) {
    for (const Edge& e : batch) checksum += edge_digest(e);
    edges.insert(edges.end(), batch.begin(), batch.end());
  }
  FB_CHECK_MSG(edges.size() == meta.num_edges,
               "edge file of " << meta.name << " holds " << edges.size()
                               << " records, sidecar says "
                               << meta.num_edges);
  FB_CHECK_MSG(checksum == meta.checksum,
               "edge file of " << meta.name << " fails its checksum");
  return edges;
}

}  // namespace fbfs::graph
