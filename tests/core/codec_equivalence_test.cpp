// The codec/sieve acceptance matrix for the FastBFS trimming engine:
// BFS, on a small R-MAT, must stay BIT-IDENTICAL to the
// in-memory reference under every update-codec policy (the stay codec
// follows it, as the config default does) x sieve on/off x serial and
// parallel scatter — all with trimming ON, so encoded stay files are
// written, committed, and re-scanned mid-matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/temp_dir.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "inmem/engine.hpp"
#include "storage/codec.hpp"

namespace fbfs {
namespace {

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
        options.trim = true;
        options.update_codec = policy;
        options.stay_codec = policy;  // what the config default resolves to
        options.sieve_updates = sieve;
        options.num_threads = threads;
        // T > 1 cuts scans into 1 KiB (128-edge) units, so the workers
        // retire many units of one partition concurrently.
        if (threads > 1) options.reader.buffer_bytes = 1024;
        const auto streamed = core::run(pg, plan, program, options);

        ASSERT_EQ(streamed.iterations, reference.iterations);
        ASSERT_EQ(streamed.states.size(), reference.states.size());
        ASSERT_EQ(
            std::memcmp(streamed.states.data(), reference.states.data(),
                        streamed.states.size() * sizeof(typename P::State)),
            0);
        if (streamed.iterations > 1) {
          // The matrix is pointless if nothing trimmed: encoded stay
          // files must actually have been written and re-read.
          ASSERT_GT(streamed.trims_started, 0u);
        }
      }
    }
  }
}

TEST(CoreCodecEquivalence, BfsUnderEveryCodecAndSieve) {
  TempDir dir("core_codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  expect_codec_equivalent(dev, rmat_meta(dev), BfsProgram{.root = 0});
}

TEST(CoreCodecEquivalence, EncodedStaysSurviveZeroGraceCancellation) {
  // Zero grace cancels any stream not already committed at the next
  // scan of its partition, mixing raw re-reads of the previous input
  // with encoded stay files mid-run — the fallback path must dispatch
  // per-partition on the format that actually committed.
  TempDir dir("core_codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const auto reference = inmem::run_graph(dev, meta, BfsProgram{});
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);
  for (const Policy policy : {Policy::kVarint, Policy::kAuto}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("codec=") + io::codec::to_string(policy) +
                   ", T=" + std::to_string(threads));
      engine::Options options;
      options.trim = true;
      options.grace_timeout_seconds = 0.0;
      options.update_codec = policy;
      options.stay_codec = policy;
      options.sieve_updates = true;
      options.num_threads = threads;
      if (threads > 1) options.reader.buffer_bytes = 1024;  // 128-edge units
      const auto streamed = core::run(pg, plan, BfsProgram{}, options);
      ASSERT_EQ(streamed.iterations, reference.iterations);
      ASSERT_EQ(std::memcmp(streamed.states.data(), reference.states.data(),
                            streamed.states.size() *
                                sizeof(BfsProgram::State)),
                0);
    }
  }
}

TEST(CoreCodecEquivalence, StayCodecShrinksStayBytesOnBfs) {
  // Varint stays must genuinely shrink the stay stream relative to raw
  // (8 B/edge down to ~5 B/edge of sorted deltas) without changing the
  // survivor count or a bit of the answer.
  TempDir dir("core_codec_equiv");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const GraphMeta meta = rmat_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);

  // Bytes the run wrote to the one device, taken around the whole call:
  // the stay writer may finish a stream after the last round's I/O
  // snapshot, so the per-round rows can miss some of its bytes. Both
  // runs write the same raw update files, so the difference is the
  // stays'.
  const auto run_written = [&](const engine::Options& options,
                               std::uint64_t& written) {
    const std::uint64_t before = dev.stats().bytes_written();
    auto result = core::run(pg, plan, BfsProgram{}, options);
    written = dev.stats().bytes_written() - before;
    return result;
  };

  engine::Options raw;
  raw.trim = true;
  std::uint64_t raw_written = 0, varint_written = 0;
  const auto raw_run = run_written(raw, raw_written);
  engine::Options varint = raw;
  varint.stay_codec = Policy::kVarint;
  const auto varint_run = run_written(varint, varint_written);

  ASSERT_EQ(raw_run.iterations, varint_run.iterations);
  ASSERT_EQ(std::memcmp(raw_run.states.data(), varint_run.states.data(),
                        raw_run.states.size() * sizeof(BfsProgram::State)),
            0);
  ASSERT_GT(raw_run.trims_committed, 0u);
  ASSERT_EQ(raw_run.stay_edges_written, varint_run.stay_edges_written);
  ASSERT_GT(raw_written, 0u);
  EXPECT_LT(varint_written, raw_written);
}

}  // namespace
}  // namespace fbfs
