// The codec/sieve acceptance matrix for the X-Stream preset
// (Kind::kXstream): BFS, on a small R-MAT, must stay
// BIT-IDENTICAL to the in-memory reference under every update-codec
// policy x sieve on/off x serial and parallel scatter. The codec and
// sieve are pure write-traffic optimisations; if either changes a bit
// of state, it is a bug. Update-file determinism across thread counts (the PR 5
// invariant) must also survive the encoded formats.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "graph/generators.hpp"
#include "storage/codec.hpp"
#include "storage/stream.hpp"

namespace fbfs {
namespace {

using engine::Kind;
using graph::BfsProgram;
using graph::GraphMeta;
using io::codec::Policy;

GraphMeta rmat_meta(io::Device& dev) {
  const graph::RmatSource source({.scale = 9, .edge_factor = 8, .seed = 7});
  return graph::write_generated(
      dev, "rmat", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
}

constexpr Policy kPolicies[] = {Policy::kRaw, Policy::kBitmap,
                                Policy::kVarint, Policy::kAuto};

/// One program through the full codec x sieve x threads matrix against
/// the in-memory reference.
template <graph::GraphProgram P>
void expect_codec_equivalent(io::Device& dev, const GraphMeta& meta,
                             const P& program) {
  const auto reference = inmem::run_graph(dev, meta, program);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);
  for (const Policy policy : kPolicies) {
    for (const bool sieve : {false, true}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(P::kName) + ", codec=" +
                     io::codec::to_string(policy) +
                     (sieve ? ", sieve" : ", no-sieve") + ", T=" +
                     std::to_string(threads));
        engine::Options options;
        options.update_codec = policy;
        options.sieve_updates = sieve;
        options.num_threads = threads;
        // T > 1 cuts scans into 1 KiB (128-edge) units, so the workers
        // retire many units of one partition concurrently.
        if (threads > 1) options.reader.buffer_bytes = 1024;
        const auto streamed =
            engine::run(Kind::kXstream, pg, plan, program, options);

        ASSERT_EQ(streamed.iterations, reference.iterations);
        ASSERT_EQ(streamed.states.size(), reference.states.size());
        ASSERT_EQ(
            std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() * sizeof(typename P::State)),
            0);
      }
    }
  }
}

TEST(CodecEquivalence, BfsUnderEveryCodecAndSieve) {
  TempDir dir("codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_codec_equivalent(dev, rmat_meta(dev), BfsProgram{.root = 0});
}

TEST(CodecEquivalence, SieveReallyDropsUpdatesOnBfs) {
  // The sieve is not allowed to be a silent no-op on a duplicate-heavy
  // graph: updates_sieved must move, and the per-partition pending
  // counts (= staged updates) must shrink.
  TempDir dir("codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  engine::Options off;
  const auto plain = engine::run(Kind::kXstream, pg, plan, BfsProgram{}, off);
  engine::Options on;
  on.sieve_updates = true;
  const auto sieved = engine::run(Kind::kXstream, pg, plan, BfsProgram{}, on);

  ASSERT_EQ(plain.iterations, sieved.iterations);
  std::uint64_t plain_sieved = 0, on_sieved = 0;
  for (const auto& it : plain.per_iteration) plain_sieved += it.updates_sieved;
  for (const auto& it : sieved.per_iteration) on_sieved += it.updates_sieved;
  EXPECT_EQ(plain_sieved, 0u);
  EXPECT_GT(on_sieved, 0u);
  // Both engines count scatter-produced updates identically; the sieve
  // only thins what reaches the writers.
  EXPECT_EQ(plain.updates_emitted, sieved.updates_emitted + on_sieved);
  EXPECT_EQ(std::memcmp(plain.states.data(), sieved.states.data(),
                        plain.states.size() * sizeof(BfsProgram::State)),
            0);
}

TEST(CodecEquivalence, CodecShrinksBfsUpdateBytes) {
  // The point of the PR: auto + sieve must write measurably fewer
  // update bytes than raw on a duplicate-heavy R-MAT BFS.
  TempDir dir("codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  const auto update_bytes = [](const auto& result) {
    std::uint64_t total = 0;
    for (const auto& it : result.per_iteration) {
      for (const std::uint64_t b : it.update_codec_bytes) total += b;
    }
    return total;
  };

  engine::Options raw;
  const auto raw_run = engine::run(Kind::kXstream, pg, plan, BfsProgram{}, raw);
  engine::Options compressed;
  compressed.update_codec = Policy::kAuto;
  compressed.sieve_updates = true;
  const auto auto_run =
      engine::run(Kind::kXstream, pg, plan, BfsProgram{}, compressed);

  ASSERT_EQ(raw_run.iterations, auto_run.iterations);
  ASSERT_EQ(std::memcmp(raw_run.states.data(), auto_run.states.data(),
                        raw_run.states.size() * sizeof(BfsProgram::State)),
            0);
  EXPECT_LT(update_bytes(auto_run), update_bytes(raw_run));
  // Raw runs attribute every byte to the raw bucket, and vice versa.
  for (const auto& it : raw_run.per_iteration) {
    EXPECT_EQ(it.update_codec_bytes[1], 0u);
    EXPECT_EQ(it.update_codec_bytes[2], 0u);
  }
}

TEST(CodecEquivalence, EncodedUpdateFilesAreByteIdenticalAcrossThreads) {
  // PR 5 pinned update files byte-identical at every thread count; the
  // staged codecs (sort + encode at close) and the windowed sieve must
  // preserve that — the sieve windows align with the parallel chunk
  // boundaries by construction.
  TempDir dir("codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  const auto final_update_files =
      [&](std::uint32_t threads, std::vector<std::vector<std::byte>>& files) {
        engine::Options options;
        options.max_iterations = 3;  // stop with update files still on disk
        options.update_codec = Policy::kVarint;
        options.sieve_updates = true;
        options.num_threads = threads;
        options.keep_files = true;
        options.memory_budget_bytes = 0;  // every blob written to its file
        engine::run(Kind::kXstream, pg, plan, BfsProgram{}, options);
        for (std::uint32_t q = 0; q < pg.layout.num_partitions(); ++q) {
          auto f = dev.open(core::update_file_name(pg, q),
                            /*truncate=*/false);
          std::vector<std::byte> bytes(f->size());
          io::StreamReader reader(*f, 1 << 16);
          std::size_t got = 0;
          while (got < bytes.size()) {
            got += reader.read(bytes.data() + got, bytes.size() - got);
          }
          files.push_back(std::move(bytes));
        }
      };

  std::vector<std::vector<std::byte>> serial, parallel;
  final_update_files(1, serial);
  final_update_files(4, parallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    ASSERT_GT(serial[q].size(), 0u);
    EXPECT_EQ(serial[q], parallel[q]) << "update file " << q;
  }
}

}  // namespace
}  // namespace fbfs
