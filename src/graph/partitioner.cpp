#include "graph/partitioner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/config.hpp"
#include "common/log.hpp"
#include "storage/stream.hpp"

namespace fbfs::graph {

PartitionLayout::PartitionLayout(std::uint64_t num_vertices,
                                 std::uint32_t num_partitions)
    : num_vertices_(num_vertices), num_partitions_(num_partitions) {
  FB_CHECK_MSG(num_partitions >= 1, "need at least one partition");
  base_ = num_vertices / num_partitions;
  extra_ = num_vertices % num_partitions;
}

VertexId PartitionLayout::begin(std::uint32_t p) const {
  FB_CHECK_LE(p, num_partitions_);
  const std::uint64_t extra_here = std::min<std::uint64_t>(p, extra_);
  return static_cast<VertexId>(p * base_ + extra_here);
}

std::uint32_t PartitionLayout::owner(VertexId v) const {
  FB_CHECK_LT(v, num_vertices_);
  const std::uint64_t wide_end = extra_ * (base_ + 1);
  if (v < wide_end) {
    return static_cast<std::uint32_t>(v / (base_ + 1));
  }
  // base_ > 0 here: wide_end == num_vertices_ when base_ == 0, and v is
  // below num_vertices_.
  return static_cast<std::uint32_t>(extra_ + (v - wide_end) / base_);
}

std::string PartitionedGraph::partition_file(std::uint32_t p) const {
  return meta.name + ".P" + std::to_string(layout.num_partitions()) +
         ".part" + std::to_string(p);
}

PartitionedGraph partition_edge_list(const io::StoragePlan& plan,
                                     const GraphMeta& meta,
                                     std::uint32_t num_partitions,
                                     const PartitionOptions& options) {
  FB_CHECK_EQ(meta.record_size, sizeof(Edge));
  io::Device& device = plan.edges();
  PartitionedGraph pg;
  pg.meta = meta;
  pg.layout = PartitionLayout(meta.num_vertices, num_partitions);
  pg.edges_per_partition.assign(num_partitions, 0);

  // Half the budget feeds the (double-buffered) input scan, the other
  // half is split into per-partition staging buffers.
  const std::size_t read_buffer =
      std::max<std::size_t>(sizeof(Edge), options.buffer_bytes / 2);
  const std::size_t write_buffer = std::max<std::size_t>(
      sizeof(Edge), options.buffer_bytes / 2 / num_partitions);

  struct PartitionOut {
    std::unique_ptr<io::File> file;
    std::unique_ptr<io::RecordWriter<Edge>> writer;
  };
  std::vector<PartitionOut> outputs(num_partitions);
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    outputs[p].file = device.open(pg.partition_file(p), /*truncate=*/true);
    outputs[p].writer =
        std::make_unique<io::RecordWriter<Edge>>(*outputs[p].file,
                                                 write_buffer);
  }

  auto reader = io::open_record_reader<Edge>(
      device, meta.edge_file(), {options.reader, read_buffer, 0});
  std::uint64_t total = 0;
  std::uint64_t checksum = 0;
  for (auto batch = reader->next_batch(); !batch.empty();
       batch = reader->next_batch()) {
    for (const Edge& e : batch) {
      const std::uint32_t p = pg.layout.owner(e.src);
      outputs[p].writer->append(e);
      ++pg.edges_per_partition[p];
      checksum += edge_digest(e);
    }
    total += batch.size();
  }
  for (PartitionOut& out : outputs) out.writer->flush();

  FB_CHECK_MSG(total == meta.num_edges,
               "partitioner read " << total << " edges of " << meta.name
                                   << ", sidecar says " << meta.num_edges);
  FB_CHECK_MSG(checksum == meta.checksum,
               "edge file of " << meta.name
                               << " fails its checksum during partitioning");
  FB_LOG_DEBUG << "partitioned " << meta.name << " into " << num_partitions
               << " ranges (" << total << " edges)";
  return pg;
}

std::string transposed_file(const PartitionedGraph& pg, std::uint32_t q) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tpart" + std::to_string(q);
}

std::string transposed_index_file(const PartitionedGraph& pg,
                                  std::uint32_t q) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tindex" + std::to_string(q);
}

std::string transposed_meta_file(const PartitionedGraph& pg) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tmeta";
}

namespace {

std::uint64_t transposed_block_count(std::uint64_t records) {
  return (records + kTransposedBlockRecords - 1) / kTransposedBlockRecords;
}

/// A cache hit: the sidecar matches this graph + partition count AND
/// the block granularity this build understands, and every transposed
/// file and block index is exactly the size the sidecar implies.
/// (Sidecars from before the block index lack `block_records`, so old
/// caches rebuild once.)
bool load_cached_transposed_view(io::Device& device,
                                 const PartitionedGraph& pg,
                                 TransposedView& view) {
  const std::string meta_name = transposed_meta_file(pg);
  if (!device.exists(meta_name)) return false;
  const Config cfg = Config::parse_file(device.path(meta_name));
  if (cfg.get_u64_or("num_partitions", 0) != pg.layout.num_partitions() ||
      cfg.get_u64_or("num_edges", 0) != pg.meta.num_edges ||
      cfg.get_u64_or("checksum", 0) != pg.meta.checksum ||
      cfg.get_u64_or("block_records", 0) != kTransposedBlockRecords) {
    return false;
  }
  std::vector<std::uint64_t> counts(pg.layout.num_partitions());
  for (std::uint32_t q = 0; q < counts.size(); ++q) {
    counts[q] = cfg.get_u64_or("in_edges" + std::to_string(q), 0);
    const std::string name = transposed_file(pg, q);
    if (!device.exists(name) ||
        device.file_size(name) != counts[q] * sizeof(Edge)) {
      return false;
    }
    const std::string index_name = transposed_index_file(pg, q);
    if (!device.exists(index_name) ||
        device.file_size(index_name) !=
            transposed_block_count(counts[q]) * sizeof(TransposedBlock)) {
      return false;
    }
  }
  view.blocks.assign(pg.layout.num_partitions(), {});
  for (std::uint32_t q = 0; q < counts.size(); ++q) {
    view.blocks[q].resize(transposed_block_count(counts[q]));
    if (view.blocks[q].empty()) continue;
    auto file = device.open(transposed_index_file(pg, q), /*truncate=*/false);
    const std::uint64_t bytes =
        view.blocks[q].size() * sizeof(TransposedBlock);
    FB_CHECK_EQ(file->read_at(0, view.blocks[q].data(), bytes), bytes);
  }
  view.in_edges_per_partition = std::move(counts);
  FB_LOG_DEBUG << "transposed view of " << pg.meta.name << " ("
               << pg.layout.num_partitions() << " partitions): cache hit";
  return true;
}

}  // namespace

TransposedView build_transposed_view(const io::StoragePlan& plan,
                                     const PartitionedGraph& pg,
                                     const PartitionOptions& options) {
  io::Device& device = plan.edges();
  TransposedView view;
  if (load_cached_transposed_view(device, pg, view)) return view;

  const std::uint32_t num_partitions = pg.layout.num_partitions();
  view.in_edges_per_partition.assign(num_partitions, 0);

  // Pass 1 — fan out by DESTINATION owner, streaming each source
  // partition file in order (the same split-the-budget buffering as the
  // forward partitioner). The multiset checksum re-verifies the
  // partition files en route.
  const std::size_t read_buffer =
      std::max<std::size_t>(sizeof(Edge), options.buffer_bytes / 2);
  const std::size_t write_buffer = std::max<std::size_t>(
      sizeof(Edge), options.buffer_bytes / 2 / num_partitions);
  struct PartitionOut {
    std::unique_ptr<io::File> file;
    std::unique_ptr<io::RecordWriter<Edge>> writer;
  };
  {
    std::vector<PartitionOut> outputs(num_partitions);
    for (std::uint32_t q = 0; q < num_partitions; ++q) {
      outputs[q].file = device.open(transposed_file(pg, q), /*truncate=*/true);
      outputs[q].writer = std::make_unique<io::RecordWriter<Edge>>(
          *outputs[q].file, write_buffer);
    }
    std::uint64_t total = 0;
    std::uint64_t checksum = 0;
    for (std::uint32_t p = 0; p < num_partitions; ++p) {
      auto reader = io::open_record_reader<Edge>(
          device, pg.partition_file(p), {options.reader, read_buffer, 0});
      for (auto batch = reader->next_batch(); !batch.empty();
           batch = reader->next_batch()) {
        for (const Edge& e : batch) {
          const std::uint32_t q = pg.layout.owner(e.dst);
          outputs[q].writer->append(e);
          ++view.in_edges_per_partition[q];
          checksum += edge_digest(e);
        }
        total += batch.size();
      }
    }
    for (PartitionOut& out : outputs) out.writer->flush();
    FB_CHECK_MSG(total == pg.meta.num_edges,
                 "transpose read " << total << " edges of " << pg.meta.name
                                   << ", sidecar says " << pg.meta.num_edges);
    FB_CHECK_MSG(checksum == pg.meta.checksum,
                 "partition files of " << pg.meta.name
                                       << " fail their checksum during "
                                          "transposition");
  }

  // Pass 2 — sort each transposed file by destination (stable, so
  // same-dst edges keep their pass-1 order and the output is a pure
  // function of the partition files). The dst-sorted layout is what
  // lets the bottom-up scan treat each vertex's in-edges as one run.
  // The block index falls out of the sorted array for free: each fixed
  // kTransposedBlockRecords-record block's dst range, persisted beside
  // the file so the skip-scan never needs a priming read.
  view.blocks.assign(num_partitions, {});
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    const std::string name = transposed_file(pg, q);
    std::vector<Edge> edges(view.in_edges_per_partition[q]);
    {
      auto file = device.open(name, /*truncate=*/false);
      const std::uint64_t bytes = edges.size() * sizeof(Edge);
      FB_CHECK_EQ(file->read_at(0, edges.data(), bytes), bytes);
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const Edge& a, const Edge& b) { return a.dst < b.dst; });
    auto file = device.open(name, /*truncate=*/true);
    io::RecordWriter<Edge> writer(*file, read_buffer);
    for (const Edge& e : edges) writer.append(e);
    writer.flush();

    std::vector<TransposedBlock>& blocks = view.blocks[q];
    blocks.resize(transposed_block_count(edges.size()));
    for (std::uint64_t b = 0; b < blocks.size(); ++b) {
      const std::uint64_t first = b * kTransposedBlockRecords;
      const std::uint64_t last =
          std::min(first + kTransposedBlockRecords, edges.size()) - 1;
      blocks[b] = {edges[first].dst, edges[last].dst};
    }
    auto index = device.open(transposed_index_file(pg, q), /*truncate=*/true);
    io::RecordWriter<TransposedBlock> index_writer(*index, 1 << 16);
    for (const TransposedBlock& block : blocks) index_writer.append(block);
    index_writer.flush();
  }

  // Sidecar last: its presence certifies the files above are complete.
  Config cfg;
  cfg.set_u64("num_partitions", num_partitions);
  cfg.set_u64("num_edges", pg.meta.num_edges);
  cfg.set_u64("checksum", pg.meta.checksum);
  cfg.set_u64("block_records", kTransposedBlockRecords);
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    cfg.set_u64("in_edges" + std::to_string(q),
                view.in_edges_per_partition[q]);
  }
  cfg.write_file(device.path(transposed_meta_file(pg)));
  FB_LOG_DEBUG << "built transposed view of " << pg.meta.name << " ("
               << num_partitions << " partitions, " << pg.meta.num_edges
               << " edges)";
  return view;
}

}  // namespace fbfs::graph
