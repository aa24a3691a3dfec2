// Range-partitioner properties: the layout tiles the vertex space
// exactly, every edge lands in exactly the partition owning its source,
// and the concatenation of the partition files is the input as a
// multiset (via the order-independent sidecar checksum).
#include "graph/partitioner.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/temp_dir.hpp"
#include "graph/generators.hpp"
#include "storage/stream.hpp"

namespace fbfs::graph {
namespace {

io::Device make_device(const TempDir& dir) {
  return io::Device(dir.str(), io::DeviceModel::unthrottled());
}

TEST(PartitionLayout, TilesTheVertexSpaceForAwkwardShapes) {
  for (const std::uint64_t v : {1ull, 2ull, 7ull, 100ull, 1017ull}) {
    for (const std::uint32_t p : {1u, 2u, 3u, 7u, 16u}) {
      if (p > v) continue;
      const PartitionLayout layout(v, p);
      EXPECT_EQ(layout.begin(0), 0u);
      EXPECT_EQ(layout.end(p - 1), v);
      std::uint64_t covered = 0;
      for (std::uint32_t i = 0; i < p; ++i) {
        ASSERT_EQ(layout.begin(i), covered) << v << "/" << p;
        ASSERT_GE(layout.size(i), v / p);       // balanced:
        ASSERT_LE(layout.size(i), v / p + 1);   // sizes differ by <= 1
        covered += layout.size(i);
      }
      ASSERT_EQ(covered, v);
      for (VertexId vertex = 0; vertex < v; ++vertex) {
        const std::uint32_t owner = layout.owner(vertex);
        ASSERT_LT(owner, p);
        ASSERT_GE(vertex, layout.begin(owner));
        ASSERT_LT(vertex, layout.end(owner));
      }
    }
  }
}

TEST(Partitioner, EveryEdgeLandsInExactlyItsOwnersFile) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const ErdosRenyiSource source(
      {.num_vertices = 10'000, .num_edges = 80'000, .seed = 9});
  const GraphMeta meta = write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });

  const std::uint32_t P = 7;
  const PartitionedGraph pg = partition_edge_list(dev, meta, P);

  std::uint64_t total = 0;
  std::uint64_t checksum = 0;
  for (std::uint32_t p = 0; p < P; ++p) {
    auto f = dev.open(pg.partition_file(p));
    ASSERT_EQ(f->size(), pg.edges_per_partition[p] * sizeof(Edge));
    io::RecordReader<Edge> reader(*f, 1 << 16);
    Edge e;
    std::uint64_t count = 0;
    while (reader.next(e)) {
      ASSERT_GE(e.src, pg.layout.begin(p));  // ownership: src in range
      ASSERT_LT(e.src, pg.layout.end(p));
      checksum += edge_digest(e);
      ++count;
    }
    ASSERT_EQ(count, pg.edges_per_partition[p]);
    total += count;
  }
  // Union of the partitions == the input, as a multiset.
  EXPECT_EQ(total, meta.num_edges);
  EXPECT_EQ(checksum, meta.checksum);
}

TEST(Partitioner, SinglePartitionReproducesTheInputFile) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const GraphMeta meta = write_generated(
      dev, "tiny", 4, 1, false, [](const EdgeSink& sink) {
        sink({0, 1});
        sink({3, 2});
        sink({1, 1});
      });
  const PartitionedGraph pg = partition_edge_list(dev, meta, 1);
  EXPECT_EQ(pg.edges_per_partition[0], meta.num_edges);
  auto f = dev.open(pg.partition_file(0));
  io::RecordReader<Edge> reader(*f, 64);
  std::vector<Edge> back;
  Edge e;
  while (reader.next(e)) back.push_back(e);
  EXPECT_EQ(back, (std::vector<Edge>{{0, 1}, {3, 2}, {1, 1}}));
}

TEST(TransposedView, HoldsEveryEdgeDstSortedInItsOwnersFile) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const ErdosRenyiSource source(
      {.num_vertices = 2'000, .num_edges = 16'000, .seed = 5});
  const GraphMeta meta = write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const std::uint32_t P = 5;
  const PartitionedGraph pg = partition_edge_list(plan, meta, P);
  const TransposedView view = build_transposed_view(plan, pg);

  std::uint64_t total = 0;
  std::uint64_t checksum = 0;
  for (std::uint32_t q = 0; q < P; ++q) {
    auto f = dev.open(transposed_file(pg, q));
    ASSERT_EQ(f->size(), view.in_edges_per_partition[q] * sizeof(Edge));
    io::RecordReader<Edge> reader(*f, 1 << 16);
    Edge e;
    std::uint64_t count = 0;
    VertexId last_dst = 0;
    while (reader.next(e)) {
      ASSERT_GE(e.dst, pg.layout.begin(q));  // ownership: dst in range
      ASSERT_LT(e.dst, pg.layout.end(q));
      ASSERT_GE(e.dst, last_dst);  // dst-sorted: in-edges form runs
      last_dst = e.dst;
      checksum += edge_digest(e);
      ++count;
    }
    ASSERT_EQ(count, view.in_edges_per_partition[q]);
    total += count;
  }
  // Union of the transposed files == the input, as a multiset.
  EXPECT_EQ(total, meta.num_edges);
  EXPECT_EQ(checksum, meta.checksum);
}

TEST(TransposedView, CacheHitsAndRejectsDamagedFiles) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const GraphMeta meta = write_generated(
      dev, "tiny", 6, 1, false, [](const EdgeSink& sink) {
        sink({0, 5});
        sink({5, 0});
        sink({1, 3});
        sink({4, 3});
      });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);
  const TransposedView first = build_transposed_view(plan, pg);
  ASSERT_TRUE(dev.exists(transposed_meta_file(pg)));
  // Destinations {5, 0, 3, 3}; partition 0 owns vertices 0-2.
  EXPECT_EQ(first.in_edges_per_partition,
            (std::vector<std::uint64_t>{1, 3}));

  // A second build is a cache load: same counts, no bytes rewritten.
  const std::uint64_t written_before = dev.stats().bytes_written();
  const TransposedView cached = build_transposed_view(plan, pg);
  EXPECT_EQ(cached.in_edges_per_partition, first.in_edges_per_partition);
  EXPECT_EQ(dev.stats().bytes_written(), written_before);

  // Damage one transposed file: the sidecar no longer matches its size,
  // so the next build must rebuild rather than trust the cache.
  dev.remove(transposed_file(pg, 1));
  const TransposedView rebuilt = build_transposed_view(plan, pg);
  EXPECT_EQ(rebuilt.in_edges_per_partition, first.in_edges_per_partition);
  EXPECT_TRUE(dev.exists(transposed_file(pg, 1)));
}

TEST(TransposedView, BlockIndexCoversEveryRecordWithOrderedDstRanges) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  // Big enough that partitions span several 4096-record blocks plus a
  // partial tail block.
  const ErdosRenyiSource source(
      {.num_vertices = 1'000, .num_edges = 30'000, .seed = 17});
  const GraphMeta meta = write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const std::uint32_t P = 3;
  const PartitionedGraph pg = partition_edge_list(plan, meta, P);
  const TransposedView view = build_transposed_view(plan, pg);

  ASSERT_EQ(view.blocks.size(), P);
  for (std::uint32_t q = 0; q < P; ++q) {
    const std::uint64_t records = view.in_edges_per_partition[q];
    const std::uint64_t want_blocks =
        (records + kTransposedBlockRecords - 1) / kTransposedBlockRecords;
    ASSERT_EQ(view.blocks[q].size(), want_blocks);
    // Re-read the file and check every block's recorded range is exact
    // — not merely containing, since pull's skip decision trusts it.
    auto f = dev.open(transposed_file(pg, q));
    io::RecordReader<Edge> reader(*f, 1 << 16);
    Edge e;
    std::uint64_t i = 0;
    VertexId seen_first = 0;
    VertexId seen_last = 0;
    while (reader.next(e)) {
      const std::uint64_t b = i / kTransposedBlockRecords;
      if (i % kTransposedBlockRecords == 0) {
        seen_first = e.dst;
        if (b > 0) {  // close out the previous block
          EXPECT_EQ(view.blocks[q][b - 1].last_dst, seen_last);
          // dst-sorted file: consecutive blocks' ranges never regress.
          EXPECT_GE(view.blocks[q][b].first_dst,
                    view.blocks[q][b - 1].last_dst);
        }
        EXPECT_EQ(view.blocks[q][b].first_dst, seen_first);
      }
      seen_last = e.dst;
      ++i;
    }
    if (records > 0) {
      EXPECT_EQ(view.blocks[q].back().last_dst, seen_last);
    }
  }
}

TEST(TransposedView, CachedLoadKeepsBlocksAndDamagedIndexRebuilds) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const ErdosRenyiSource source(
      {.num_vertices = 500, .num_edges = 9'000, .seed = 3});
  const GraphMeta meta = write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 2);
  const TransposedView first = build_transposed_view(plan, pg);

  // Cache hit: identical blocks, no bytes rewritten.
  const std::uint64_t written_before = dev.stats().bytes_written();
  const TransposedView cached = build_transposed_view(plan, pg);
  EXPECT_EQ(dev.stats().bytes_written(), written_before);
  ASSERT_EQ(cached.blocks.size(), first.blocks.size());
  for (std::size_t q = 0; q < first.blocks.size(); ++q) {
    ASSERT_EQ(cached.blocks[q].size(), first.blocks[q].size());
    EXPECT_EQ(std::memcmp(cached.blocks[q].data(), first.blocks[q].data(),
                          first.blocks[q].size() * sizeof(TransposedBlock)),
              0);
  }

  // A missing index file invalidates the cache (the transposed files
  // themselves are intact) and the rebuild restores it.
  ASSERT_TRUE(dev.exists(transposed_index_file(pg, 1)));
  dev.remove(transposed_index_file(pg, 1));
  const TransposedView rebuilt = build_transposed_view(plan, pg);
  EXPECT_TRUE(dev.exists(transposed_index_file(pg, 1)));
  ASSERT_EQ(rebuilt.blocks.size(), first.blocks.size());
  for (std::size_t q = 0; q < first.blocks.size(); ++q) {
    ASSERT_EQ(rebuilt.blocks[q].size(), first.blocks[q].size());
    EXPECT_EQ(std::memcmp(rebuilt.blocks[q].data(), first.blocks[q].data(),
                          first.blocks[q].size() * sizeof(TransposedBlock)),
              0);
  }
}

}  // namespace
}  // namespace fbfs::graph
