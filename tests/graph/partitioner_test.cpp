// Range-partitioner properties: the layout tiles the vertex space
// exactly, every edge lands in exactly the partition owning its source,
// the concatenation of the partition files is the input as a multiset
// (via the order-independent sidecar checksum), each file is its edges
// stably sorted by source with an exact block index, and the transposed
// view matches a std::stable_sort reference and rebuilds whenever its
// cache is damaged.
#include "graph/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "graph/generators.hpp"
#include "storage/stream.hpp"

namespace fbfs::graph {
namespace {

io::Device make_device(const TempDir& dir) {
  return io::Device(dir.str(), io::DeviceModel::unthrottled());
}

std::vector<Edge> read_edges(io::Device& dev, const std::string& name) {
  std::vector<Edge> edges(dev.file_size(name) / sizeof(Edge));
  auto file = dev.open(name, /*truncate=*/false);
  const std::uint64_t bytes = edges.size() * sizeof(Edge);
  EXPECT_EQ(file->read_at(0, edges.data(), bytes), bytes);
  return edges;
}

/// Threads of this process: one task entry each. A sanitizer runtime
/// may start a helper thread with the first thread the process
/// creates, so the count is taken after one thread has come and gone.
std::size_t thread_count() {
  std::thread([] {}).join();
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

GraphMeta er_graph(io::Device& dev) {
  const ErdosRenyiSource source(
      {.num_vertices = 1'000, .num_edges = 30'000, .seed = 17});
  return write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
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

TEST(Partitioner, SinglePartitionHoldsTheInputStablySortedBySource) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const GraphMeta meta = write_generated(
      dev, "tiny", 4, 1, false, [](const EdgeSink& sink) {
        sink({0, 1});
        sink({3, 2});
        sink({1, 1});
        sink({0, 0});
      });
  const PartitionedGraph pg = partition_edge_list(dev, meta, 1);
  EXPECT_EQ(pg.edges_per_partition[0], meta.num_edges);
  EXPECT_EQ(read_edges(dev, pg.partition_file(0)),
            (std::vector<Edge>{{0, 1}, {0, 0}, {1, 1}, {3, 2}}));
  ASSERT_EQ(pg.blocks.size(), 1u);
  ASSERT_EQ(pg.blocks[0].size(), 1u);
  EXPECT_EQ(pg.blocks[0][0].first, 0u);
  EXPECT_EQ(pg.blocks[0][0].last, 3u);
}

/// Every block of `edges`, sorted by `key`, spans exactly its entry of
/// `blocks`: first and last key equal — not merely contained, since a
/// scan's skip decision trusts them.
void expect_exact_index(const std::vector<Edge>& edges,
                        const std::vector<EdgeBlock>& blocks, EdgeKey key) {
  const auto key_of = [key](const Edge& e) {
    return key == EdgeKey::kSrc ? e.src : e.dst;
  };
  ASSERT_EQ(blocks.size(),
            (edges.size() + kBlockRecords - 1) / kBlockRecords);
  for (std::uint64_t b = 0; b < blocks.size(); ++b) {
    const std::uint64_t first = b * kBlockRecords;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + kBlockRecords, edges.size()) - 1;
    EXPECT_EQ(blocks[b].first, key_of(edges[first])) << "block " << b;
    EXPECT_EQ(blocks[b].last, key_of(edges[last])) << "block " << b;
  }
}

TEST(Partitioner, EachFileIsItsEdgesStablySortedBySourceWithAnExactIndex) {
  // Several blocks per partition, plus partial tail blocks, on a skewed
  // graph with many same-source runs: each file must equal the input's
  // edges of its range under std::stable_sort by source (same-source
  // edges keep their input order), and the index must match every block.
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const RmatSource source({.scale = 13, .edge_factor = 16, .seed = 41});
  const GraphMeta meta = write_generated(
      dev, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
  const std::vector<Edge> input = read_edges(dev, meta.edge_file());

  const std::uint32_t P = 3;
  const PartitionedGraph pg = partition_edge_list(dev, meta, P);
  ASSERT_EQ(pg.blocks.size(), P);
  for (std::uint32_t p = 0; p < P; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    std::vector<Edge> want;
    for (const Edge& e : input) {
      if (pg.layout.owner(e.src) == p) want.push_back(e);
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const Edge& a, const Edge& b) { return a.src < b.src; });
    const std::vector<Edge> got = read_edges(dev, pg.partition_file(p));
    ASSERT_GT(got.size(), kBlockRecords);
    EXPECT_EQ(got, want);
    expect_exact_index(got, pg.blocks[p], EdgeKey::kSrc);
  }
}

TEST(EdgeSort, MatchesStdStableSortOnSeededInputs) {
  // Narrow ranges sort in one counting pass, ranges past 2^16 in two;
  // heavy duplicates check stability, and a range starting far from 0
  // checks the offset.
  for (const EdgeKey key : {EdgeKey::kSrc, EdgeKey::kDst}) {
    for (const std::uint64_t range : {1ull, 300ull, 65'536ull, 70'000ull,
                                      (1ull << 32) - 5'000'000}) {
      for (const VertexId begin : {0u, 5'000'000u}) {
        SCOPED_TRACE("key " + std::to_string(static_cast<int>(key)) +
                     ", range " + std::to_string(range) + ", begin " +
                     std::to_string(begin));
        Rng rng(range + begin);
        std::vector<Edge> edges(20'000);
        for (std::size_t i = 0; i < edges.size(); ++i) {
          const auto k = static_cast<VertexId>(begin + rng.next_below(range));
          const auto other = static_cast<VertexId>(i);  // the input order
          edges[i] = key == EdgeKey::kSrc ? Edge{k, other} : Edge{other, k};
        }
        std::vector<Edge> want = edges;
        std::stable_sort(want.begin(), want.end(),
                         [key](const Edge& a, const Edge& b) {
                           return key == EdgeKey::kSrc ? a.src < b.src
                                                       : a.dst < b.dst;
                         });
        stable_sort_edges(edges, key, begin, begin + range);
        ASSERT_EQ(edges, want);
      }
    }
  }
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
        (records + kBlockRecords - 1) / kBlockRecords;
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
      const std::uint64_t b = i / kBlockRecords;
      if (i % kBlockRecords == 0) {
        seen_first = e.dst;
        if (b > 0) {  // close out the previous block
          EXPECT_EQ(view.blocks[q][b - 1].last, seen_last);
          // dst-sorted file: consecutive blocks' ranges never regress.
          EXPECT_GE(view.blocks[q][b].first,
                    view.blocks[q][b - 1].last);
        }
        EXPECT_EQ(view.blocks[q][b].first, seen_first);
      }
      seen_last = e.dst;
      ++i;
    }
    if (records > 0) {
      EXPECT_EQ(view.blocks[q].back().last, seen_last);
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
                          first.blocks[q].size() * sizeof(EdgeBlock)),
              0);
  }

  // A missing index file invalidates the cache (the transposed files
  // themselves are intact) and the rebuild restores it.
  ASSERT_TRUE(dev.exists(transposed_index_file(pg)));
  dev.remove(transposed_index_file(pg));
  const TransposedView rebuilt = build_transposed_view(plan, pg);
  EXPECT_TRUE(dev.exists(transposed_index_file(pg)));
  ASSERT_EQ(rebuilt.blocks.size(), first.blocks.size());
  for (std::size_t q = 0; q < first.blocks.size(); ++q) {
    ASSERT_EQ(rebuilt.blocks[q].size(), first.blocks[q].size());
    EXPECT_EQ(std::memcmp(rebuilt.blocks[q].data(), first.blocks[q].data(),
                          first.blocks[q].size() * sizeof(EdgeBlock)),
              0);
  }
}

TEST(TransposedView, FilesMatchAStableSortReferenceOnSeededGraphs) {
  // The reference transposition: the partition files fanned out by
  // destination owner in partition order, then std::stable_sort by
  // destination. The build's counting sort must write the same bytes.
  for (const std::uint64_t seed : {2u, 3u}) {
    for (const std::uint32_t P : {1u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", P " +
                   std::to_string(P));
      TempDir dir("partition");
      io::Device dev = make_device(dir);
      const RmatSource source(
          {.scale = 12, .edge_factor = 8, .seed = seed});
      const GraphMeta meta = write_generated(
          dev, "rmat", source.num_vertices(), source.seed(),
          source.undirected(),
          [&](const EdgeSink& sink) { source.generate(sink); });
      const io::StoragePlan plan = io::StoragePlan::single(dev);
      const PartitionedGraph pg = partition_edge_list(plan, meta, P);
      const TransposedView view = build_transposed_view(plan, pg);

      std::vector<std::vector<Edge>> want(P);
      for (std::uint32_t p = 0; p < P; ++p) {
        for (const Edge& e : read_edges(dev, pg.partition_file(p))) {
          want[pg.layout.owner(e.dst)].push_back(e);
        }
      }
      for (std::uint32_t q = 0; q < P; ++q) {
        std::stable_sort(
            want[q].begin(), want[q].end(),
            [](const Edge& a, const Edge& b) { return a.dst < b.dst; });
        const std::vector<Edge> got = read_edges(dev, transposed_file(pg, q));
        EXPECT_EQ(got, want[q]) << "transposed file " << q;
        expect_exact_index(got, view.blocks[q], EdgeKey::kDst);
      }
    }
  }
}

TEST(TransposedView, CacheHitReadsTheIndexWithOneRequest) {
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const ErdosRenyiSource source(
      {.num_vertices = 1'000, .num_edges = 30'000, .seed = 17});
  const GraphMeta meta = write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const EdgeSink& sink) { source.generate(sink); });
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 3);
  const TransposedView first = build_transposed_view(plan, pg);

  // Every partition's index is in one file, read with one request.
  const io::IoStatsSnapshot before = dev.stats().snapshot();
  const TransposedView cached = build_transposed_view(plan, pg);
  const io::IoStatsSnapshot load = dev.stats().snapshot().delta(before);
  EXPECT_EQ(load.read_ops, 1u);
  EXPECT_EQ(load.write_ops, 0u);
  EXPECT_EQ(cached.blocks.size(), first.blocks.size());

  // A sidecar from another file layout (here: one with no layout key, as
  // the per-partition index files had) is a miss, and the rebuild
  // rewrites the view.
  Config cfg = Config::parse_file(dev.path(transposed_meta_file(pg)));
  Config old_layout;
  for (const char* key :
       {"num_partitions", "num_edges", "checksum", "block_records",
        "index_digest", "in_edges0", "in_edges1", "in_edges2"}) {
    old_layout.set_u64(key, cfg.get_u64(key));
  }
  old_layout.write_file(dev.path(transposed_meta_file(pg)));
  const std::uint64_t written_before = dev.stats().bytes_written();
  const TransposedView rebuilt = build_transposed_view(plan, pg);
  EXPECT_GT(dev.stats().bytes_written(), written_before);
  EXPECT_EQ(rebuilt.in_edges_per_partition, first.in_edges_per_partition);
}

TEST(Partitioner, ReadFaultEndsInIoErrorWithNoThreadLeft) {
  // A read error in the fan-out pass surfaces as io::IoError on the
  // calling thread, and the device serves the retry.
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const GraphMeta meta = er_graph(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const std::size_t threads = thread_count();

  dev.inject_read_faults(1);
  EXPECT_THROW(partition_edge_list(plan, meta, 3), io::IoError);
  EXPECT_EQ(dev.pending_read_faults(), 0u);
  EXPECT_EQ(thread_count(), threads);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 3);
  EXPECT_EQ(pg.edges_per_partition[0] + pg.edges_per_partition[1] +
                pg.edges_per_partition[2],
            meta.num_edges);
}

TEST(TransposedView, ReadFaultEndsInIoErrorWithNoThreadLeft) {
  // The same for the transposed build: the failed build certifies no
  // cache, and the retry builds the view.
  TempDir dir("partition");
  io::Device dev = make_device(dir);
  const GraphMeta meta = er_graph(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const PartitionedGraph pg = partition_edge_list(plan, meta, 3);
  const std::size_t threads = thread_count();

  dev.inject_read_faults(1);
  EXPECT_THROW(build_transposed_view(plan, pg), io::IoError);
  EXPECT_EQ(dev.pending_read_faults(), 0u);
  EXPECT_EQ(thread_count(), threads);
  EXPECT_FALSE(dev.exists(transposed_meta_file(pg)));
  const TransposedView view = build_transposed_view(plan, pg);
  EXPECT_EQ(view.in_edges_per_partition[0] + view.in_edges_per_partition[1] +
                view.in_edges_per_partition[2],
            meta.num_edges);
}

}  // namespace
}  // namespace fbfs::graph
