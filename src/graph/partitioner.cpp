#include "graph/partitioner.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
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

namespace {

template <typename KeyOf>
void stable_sort_edges_by(std::vector<Edge>& edges, VertexId key_begin,
                          std::uint64_t key_end, const KeyOf& key_of) {
  constexpr std::uint64_t kRadix = std::uint64_t{1} << 16;
  const std::uint64_t range = key_end - key_begin;
  // Counts of the low and (past 2^16) high 16 bits of each key's offset.
  std::vector<std::uint64_t> low(std::min(range, kRadix));
  std::vector<std::uint64_t> high(range > kRadix ? (range - 1) / kRadix + 1
                                                 : 0);
  for (const Edge& e : edges) {
    const VertexId key = key_of(e);
    FB_CHECK_MSG(key >= key_begin && key < key_end,
                 "edge key " << key << " outside its range [" << key_begin
                             << ", " << key_end << ")");
    const std::uint64_t offset = key - key_begin;
    ++low[offset % kRadix];
    if (!high.empty()) ++high[offset / kRadix];
  }
  std::vector<Edge> scratch;
  const auto pass = [&](std::vector<std::uint64_t>& start, const auto& digit) {
    if (start.empty() ||
        std::find(start.begin(), start.end(), edges.size()) != start.end()) {
      return;  // no such digit, or every record shares it
    }
    std::uint64_t sum = 0;
    for (std::uint64_t& c : start) sum += std::exchange(c, sum);
    scratch.resize(edges.size());
    for (const Edge& e : edges) {
      scratch[start[digit(std::uint64_t{key_of(e)} - key_begin)]++] = e;
    }
    edges.swap(scratch);
  };
  pass(low, [](std::uint64_t offset) { return offset % kRadix; });
  pass(high, [](std::uint64_t offset) { return offset / kRadix; });
}

}  // namespace

void stable_sort_edges(std::vector<Edge>& edges, EdgeKey key,
                       VertexId key_begin, std::uint64_t key_end) {
  if (key == EdgeKey::kSrc) {
    stable_sort_edges_by(edges, key_begin, key_end,
                         [](const Edge& e) { return e.src; });
  } else {
    stable_sort_edges_by(edges, key_begin, key_end,
                         [](const Edge& e) { return e.dst; });
  }
}

namespace {

/// The block index of `edges`, which are sorted by `key`.
std::vector<EdgeBlock> index_blocks(const std::vector<Edge>& edges,
                                    EdgeKey key) {
  const auto key_of = [key](const Edge& e) {
    return key == EdgeKey::kSrc ? e.src : e.dst;
  };
  std::vector<EdgeBlock> blocks((edges.size() + kBlockRecords - 1) /
                                kBlockRecords);
  for (std::uint64_t b = 0; b < blocks.size(); ++b) {
    const std::uint64_t first = b * kBlockRecords;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + kBlockRecords, edges.size()) - 1;
    blocks[b] = {key_of(edges[first]), key_of(edges[last])};
  }
  return blocks;
}

/// Rewrites `name`, an unsorted edge file holding `records` edges whose
/// keys lie in [key_begin, key_end), stably sorted by `key`, in appends
/// of at most `write_bytes`; returns its block index. Holds the file
/// twice in RAM (the records and the sort's scratch), nothing more.
std::vector<EdgeBlock> sort_edge_file(io::Device& device,
                                      const std::string& name,
                                      std::uint64_t records, EdgeKey key,
                                      VertexId key_begin,
                                      std::uint64_t key_end,
                                      std::size_t write_bytes) {
  std::vector<Edge> edges(records);
  const std::uint64_t bytes = records * sizeof(Edge);
  {
    auto file = device.open(name, /*truncate=*/false);
    FB_CHECK_EQ(file->read_at(0, edges.data(), bytes), bytes);
  }
  stable_sort_edges(edges, key, key_begin, key_end);
  auto file = device.open(name, /*truncate=*/true);
  const auto* data = reinterpret_cast<const std::byte*>(edges.data());
  const std::uint64_t chunk =
      std::max<std::uint64_t>(sizeof(Edge), write_bytes / sizeof(Edge) *
                                                 sizeof(Edge));
  for (std::uint64_t off = 0; off < bytes; off += chunk) {
    file->append(data + off, std::min(chunk, bytes - off));
  }
  return index_blocks(edges, key);
}

/// Per-output edge counts and block indexes of fan_out_and_sort.
struct SortedOutputs {
  std::vector<std::uint64_t> counts;
  std::vector<std::vector<EdgeBlock>> blocks;
};

/// Builds one sorted edge layout in two passes: partition files keyed
/// on the source, transposed files on the destination. Pass 1 streams
/// the `inputs` in order and appends each edge to
/// `outputs[layout.owner(key)]` through per-output staging buffers, so
/// the device sees few, large appends per file; the edge count and the
/// multiset checksum are CHECKed against `meta` (`what` names the pass).
/// Pass 2 sorts each output stably by `key` — same-key edges keep their
/// pass-1 order, so every output is a pure function of the inputs — and
/// indexes its blocks. Half of `buffer_bytes` feeds the input reader,
/// the other half is split across the staging buffers.
SortedOutputs fan_out_and_sort(io::Device& device, const GraphMeta& meta,
                               const PartitionLayout& layout,
                               const std::vector<std::string>& inputs,
                               const std::vector<std::string>& outputs,
                               EdgeKey key, std::size_t buffer_bytes,
                               const char* what) {
  const std::uint32_t num_outputs = layout.num_partitions();
  const std::size_t read_buffer =
      std::max<std::size_t>(sizeof(Edge), buffer_bytes / 2);
  const std::size_t write_buffer =
      std::max<std::size_t>(sizeof(Edge), buffer_bytes / 2 / num_outputs);
  SortedOutputs sorted;
  sorted.counts.assign(num_outputs, 0);
  {
    struct Staged {
      std::unique_ptr<io::File> file;
      std::unique_ptr<io::RecordWriter<Edge>> writer;
    };
    std::vector<Staged> staged(num_outputs);
    for (std::uint32_t q = 0; q < num_outputs; ++q) {
      staged[q].file = device.open(outputs[q], /*truncate=*/true);
      staged[q].writer = std::make_unique<io::RecordWriter<Edge>>(
          *staged[q].file, write_buffer);
    }
    std::uint64_t total = 0;
    std::uint64_t checksum = 0;
    for (const std::string& input : inputs) {
      auto file = device.open(input);
      io::RecordReader<Edge> reader(*file, read_buffer);
      for (auto batch = reader.next_batch(); !batch.empty();
           batch = reader.next_batch()) {
        for (const Edge& e : batch) {
          const std::uint32_t q =
              layout.owner(key == EdgeKey::kSrc ? e.src : e.dst);
          staged[q].writer->append(e);
          ++sorted.counts[q];
          checksum += edge_digest(e);
        }
        total += batch.size();
      }
    }
    for (Staged& out : staged) out.writer->flush();
    FB_CHECK_MSG(total == meta.num_edges,
                 what << " read " << total << " edges of " << meta.name
                      << ", sidecar says " << meta.num_edges);
    FB_CHECK_MSG(checksum == meta.checksum,
                 "the edges of " << meta.name << " fail their checksum during "
                                 << what);
  }
  sorted.blocks.resize(num_outputs);
  for (std::uint32_t q = 0; q < num_outputs; ++q) {
    sorted.blocks[q] =
        sort_edge_file(device, outputs[q], sorted.counts[q], key,
                       layout.begin(q), layout.end(q), read_buffer);
  }
  return sorted;
}

}  // namespace

std::string PartitionedGraph::partition_file(std::uint32_t p) const {
  return meta.name + ".P" + std::to_string(layout.num_partitions()) +
         ".part" + std::to_string(p);
}

PartitionedGraph partition_edge_list(const io::StoragePlan& plan,
                                     const GraphMeta& meta,
                                     std::uint32_t num_partitions,
                                     const PartitionOptions& options) {
  FB_CHECK_EQ(meta.record_size, sizeof(Edge));
  PartitionedGraph pg;
  pg.meta = meta;
  pg.layout = PartitionLayout(meta.num_vertices, num_partitions);
  std::vector<std::string> outputs(num_partitions);
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    outputs[p] = pg.partition_file(p);
  }
  SortedOutputs sorted = fan_out_and_sort(
      plan.edges(), meta, pg.layout, {meta.edge_file()}, outputs,
      EdgeKey::kSrc, options.buffer_bytes, "partitioning");
  pg.edges_per_partition = std::move(sorted.counts);
  pg.blocks = std::move(sorted.blocks);
  FB_LOG_DEBUG << "partitioned " << meta.name << " into " << num_partitions
               << " ranges (" << meta.num_edges << " edges)";
  return pg;
}

std::string transposed_file(const PartitionedGraph& pg, std::uint32_t q) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tpart" + std::to_string(q);
}

std::string transposed_index_file(const PartitionedGraph& pg) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tindex";
}

std::string transposed_meta_file(const PartitionedGraph& pg) {
  return pg.meta.name + ".P" + std::to_string(pg.layout.num_partitions()) +
         ".tmeta";
}

namespace {

/// The `.tmeta` layout this build writes and trusts: one `.tindex` file
/// with its digest, and transposed files built from source-sorted
/// partition files. Sidecars without it — or with another value —
/// rebuild once.
constexpr std::uint64_t kTransposedLayout = 2;

std::uint64_t block_count(std::uint64_t records) {
  return (records + kBlockRecords - 1) / kBlockRecords;
}

/// Order-sensitive digest of a block index, every partition's entries in
/// turn: a damaged entry changes it, so a cached index that no longer
/// matches the one the build wrote is a cache miss.
std::uint64_t index_digest(std::span<const EdgeBlock> entries) {
  std::uint64_t digest = 0;
  for (const EdgeBlock& b : entries) {
    std::uint64_t state =
        digest ^ ((static_cast<std::uint64_t>(b.first) << 32) | b.last);
    digest = splitmix64_next(state);
  }
  return digest;
}

/// A cache hit: the sidecar matches this graph, partition count, block
/// granularity and layout; every transposed file and the index are
/// exactly the sizes the sidecar implies; and the index, read with one
/// request, matches the sidecar's digest.
bool load_cached_transposed_view(io::Device& device,
                                 const PartitionedGraph& pg,
                                 TransposedView& view) {
  const std::string meta_name = transposed_meta_file(pg);
  if (!device.exists(meta_name)) return false;
  const Config cfg = Config::parse_file(device.path(meta_name));
  if (cfg.get_u64_or("num_partitions", 0) != pg.layout.num_partitions() ||
      cfg.get_u64_or("num_edges", 0) != pg.meta.num_edges ||
      cfg.get_u64_or("checksum", 0) != pg.meta.checksum ||
      cfg.get_u64_or("block_records", 0) != kBlockRecords ||
      cfg.get_u64_or("layout", 0) != kTransposedLayout) {
    return false;
  }
  std::vector<std::uint64_t> counts(pg.layout.num_partitions());
  std::uint64_t entries = 0;
  for (std::uint32_t q = 0; q < counts.size(); ++q) {
    counts[q] = cfg.get_u64_or("in_edges" + std::to_string(q), 0);
    const std::string name = transposed_file(pg, q);
    if (!device.exists(name) ||
        device.file_size(name) != counts[q] * sizeof(Edge)) {
      return false;
    }
    entries += block_count(counts[q]);
  }
  const std::string index_name = transposed_index_file(pg);
  if (!device.exists(index_name) ||
      device.file_size(index_name) != entries * sizeof(EdgeBlock)) {
    return false;
  }
  std::vector<EdgeBlock> index(entries);
  if (entries > 0) {
    auto file = device.open(index_name, /*truncate=*/false);
    const std::uint64_t bytes = entries * sizeof(EdgeBlock);
    FB_CHECK_EQ(file->read_at(0, index.data(), bytes), bytes);
  }
  if (index_digest(index) != cfg.get_u64_or("index_digest", 0)) return false;
  view.blocks.assign(pg.layout.num_partitions(), {});
  auto next = index.begin();
  for (std::uint32_t q = 0; q < counts.size(); ++q) {
    const auto end = next + static_cast<std::ptrdiff_t>(block_count(counts[q]));
    view.blocks[q].assign(next, end);
    next = end;
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

  // The dst-sorted layout is what lets the bottom-up scan treat each
  // vertex's in-edges as one run. The block index falls out of the sort;
  // every partition's entries go to one file, written once.
  const std::uint32_t num_partitions = pg.layout.num_partitions();
  std::vector<std::string> inputs(num_partitions);
  std::vector<std::string> outputs(num_partitions);
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    inputs[q] = pg.partition_file(q);
    outputs[q] = transposed_file(pg, q);
  }
  SortedOutputs sorted =
      fan_out_and_sort(device, pg.meta, pg.layout, inputs, outputs,
                       EdgeKey::kDst, options.buffer_bytes, "transposition");
  view.in_edges_per_partition = std::move(sorted.counts);
  view.blocks = std::move(sorted.blocks);
  std::vector<EdgeBlock> index;
  for (const std::vector<EdgeBlock>& blocks : view.blocks) {
    index.insert(index.end(), blocks.begin(), blocks.end());
  }
  {
    auto file = device.open(transposed_index_file(pg), /*truncate=*/true);
    if (!index.empty()) {
      file->append(index.data(), index.size() * sizeof(EdgeBlock));
    }
  }

  // Sidecar last: its presence certifies the files above are complete.
  Config cfg;
  cfg.set_u64("num_partitions", num_partitions);
  cfg.set_u64("num_edges", pg.meta.num_edges);
  cfg.set_u64("checksum", pg.meta.checksum);
  cfg.set_u64("block_records", kBlockRecords);
  cfg.set_u64("layout", kTransposedLayout);
  cfg.set_u64("index_digest", index_digest(index));
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
