// ISSUE 10 acceptance: the engines must not care which IoBackend is
// underneath. Every run here executes twice — once on the modelled
// token bucket, once on the real backend (actual O_DIRECT/io_uring I/O
// on a temp directory) — and must produce BIT-IDENTICAL final states
// AND leave bit-identical files on disk (states, update streams, stay
// files, partitions), across engines x threads x trim x direction,
// plus the batched multi-source front door. One arm runs the real
// backend on tmpfs, where O_DIRECT is refused, pinning the buffered
// fallback end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "engine/api.hpp"
#include "engine/batch.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"

namespace fbfs {
namespace {

using engine::Direction;
using engine::Kind;
using graph::BfsProgram;
using graph::GraphMeta;

GraphMeta er_meta(io::Device& dev) {
  const graph::ErdosRenyiSource source(
      {.num_vertices = 500, .num_edges = 4000, .seed = 13});
  return graph::write_generated(
      dev, "er", source.num_vertices(), source.seed(), source.undirected(),
      [&](const graph::EdgeSink& sink) { source.generate(sink); });
}

/// Everything a run leaves behind: the collected states plus every file
/// on the device, byte for byte.
struct RunArtifacts {
  std::uint32_t iterations = 0;
  std::vector<std::byte> states;
  std::map<std::string, std::vector<std::byte>> files;
};

std::map<std::string, std::vector<std::byte>> slurp_files(io::Device& dev) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const std::string& name : dev.list_files()) {
    auto f = dev.open(name);
    std::vector<std::byte> bytes(f->size());
    if (!bytes.empty()) {
      EXPECT_EQ(f->read_at(0, bytes.data(), bytes.size()), bytes.size())
          << name;
    }
    out.emplace(name, std::move(bytes));
  }
  return out;
}

template <graph::GraphProgram P>
RunArtifacts run_on_backend(const std::string& root,
                            const io::BackendOptions& backend,
                            Kind kind, const P& program,
                            const engine::Options& options) {
  io::Device dev(root, io::DeviceModel::unthrottled(), backend);
  const GraphMeta meta = er_meta(dev);
  const io::StoragePlan plan = io::StoragePlan::single(dev);
  const graph::PartitionedGraph pg = graph::partition_edge_list(plan, meta, 3);
  const auto result = engine::run(kind, pg, plan, program, options);

  RunArtifacts art;
  art.iterations = result.iterations;
  art.states.resize(result.states.size() * sizeof(typename P::State));
  std::memcpy(art.states.data(), result.states.data(), art.states.size());
  art.files = slurp_files(dev);
  return art;
}

void expect_identical(const RunArtifacts& modelled, const RunArtifacts& real) {
  ASSERT_EQ(modelled.iterations, real.iterations);
  ASSERT_EQ(modelled.states.size(), real.states.size());
  EXPECT_EQ(std::memcmp(modelled.states.data(), real.states.data(),
                        modelled.states.size()),
            0)
      << "final states differ between backends";
  ASSERT_EQ(modelled.files.size(), real.files.size());
  auto it = real.files.begin();
  for (const auto& [name, bytes] : modelled.files) {
    ASSERT_EQ(it->first, name) << "file sets differ";
    EXPECT_EQ(it->second == bytes, true)
        << "file " << name << " differs between backends ("
        << bytes.size() << " vs " << it->second.size() << " bytes)";
    ++it;
  }
}

template <graph::GraphProgram P>
void expect_backend_equivalent(const P& program, Kind kind,
                               const engine::Options& options,
                               const io::BackendOptions& real_backend = {
                                   .kind = io::BackendKind::kReal}) {
  TempDir dir("backend_equiv");
  const RunArtifacts modelled = run_on_backend(
      dir.str() + "/modelled", io::BackendOptions{}, kind, program, options);
  const RunArtifacts real = run_on_backend(dir.str() + "/real", real_backend,
                                           kind, program, options);
  expect_identical(modelled, real);
}

engine::Options opts(std::uint32_t threads, bool trim,
                     Direction direction = Direction::kTopDown) {
  engine::Options o;
  o.num_threads = threads;
  o.trim = trim;
  o.direction = direction;
  // T > 1 cuts scans into 1 KiB (128-edge) units: the workers retire
  // many units of one partition concurrently, and a real device reads
  // them in queue-depth groups per batch.
  if (threads > 1) o.reader.buffer_bytes = 1024;
  return o;
}

TEST(BackendEquivalence, XstreamAcrossThreads) {
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    expect_backend_equivalent(BfsProgram{.root = 1}, Kind::kXstream,
                              opts(threads, /*trim=*/false));
  }
}

TEST(BackendEquivalence, CoreAcrossThreadsTrimAndDirection) {
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const bool trim : {false, true}) {
      for (const Direction direction :
           {Direction::kTopDown, Direction::kAuto}) {
        SCOPED_TRACE("T=" + std::to_string(threads) +
                     (trim ? " trim-on " : " trim-off ") +
                     engine::to_string(direction));
        expect_backend_equivalent(BfsProgram{.root = 1}, Kind::kCore,
                                  opts(threads, trim, direction));
      }
    }
  }
}

TEST(BackendEquivalence, RealQueueDepthOneStillMatches) {
  // qd=1 forces the ring to degenerate to one-in-flight submissions.
  expect_backend_equivalent(
      BfsProgram{.root = 1}, Kind::kCore, opts(4, /*trim=*/true),
      {.kind = io::BackendKind::kReal, .queue_depth = 1});
}

TEST(BackendEquivalence, RealWithoutUringStillMatches) {
  expect_backend_equivalent(
      BfsProgram{.root = 1}, Kind::kCore, opts(4, /*trim=*/true),
      {.kind = io::BackendKind::kReal, .use_uring = false});
}

TEST(BackendEquivalence, RunBatchMultiSourceAcrossBackends) {
  const std::vector<graph::VertexId> sources = {0, 1, 7};
  TempDir dir("backend_equiv");
  engine::BatchRunResult results[2];
  for (int which = 0; which < 2; ++which) {
    const io::BackendOptions backend =
        which == 0 ? io::BackendOptions{}
                   : io::BackendOptions{.kind = io::BackendKind::kReal};
    io::Device dev(dir.str() + (which == 0 ? "/modelled" : "/real"),
                   io::DeviceModel::unthrottled(), backend);
    const GraphMeta meta = er_meta(dev);
    const io::StoragePlan plan = io::StoragePlan::single(dev);
    const graph::PartitionedGraph pg =
        graph::partition_edge_list(plan, meta, 3);
    results[which] =
        engine::run_batch(Kind::kCore, pg, plan, sources, opts(2, true));
  }
  ASSERT_EQ(results[0].per_query.size(), sources.size());
  ASSERT_EQ(results[1].per_query.size(), sources.size());
  for (std::size_t q = 0; q < sources.size(); ++q) {
    ASSERT_EQ(results[0].per_query[q].size(), results[1].per_query[q].size());
    EXPECT_EQ(std::memcmp(results[0].per_query[q].data(),
                          results[1].per_query[q].data(),
                          results[0].per_query[q].size() *
                              sizeof(BfsProgram::State)),
              0)
        << "query " << q;
  }
}

TEST(BackendEquivalence, RealOnTmpfsExercisesTheBufferedFallback) {
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/shm")) GTEST_SKIP() << "/dev/shm not available";
  const fs::path root =
      fs::path("/dev/shm") / ("fbfs_equiv_" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } cleanup{root};

  TempDir dir("backend_equiv");
  const engine::Options options = opts(4, /*trim=*/true);
  const RunArtifacts modelled =
      run_on_backend(dir.str() + "/modelled", io::BackendOptions{},
                     Kind::kCore, BfsProgram{.root = 1}, options);
  const RunArtifacts real =
      run_on_backend(root.string(), {.kind = io::BackendKind::kReal},
                     Kind::kCore, BfsProgram{.root = 1}, options);
  expect_identical(modelled, real);

  // And the fallback really was in play (tmpfs refuses O_DIRECT).
  io::Device probe(root.string(), io::DeviceModel::unthrottled(),
                   {.kind = io::BackendKind::kReal});
  if (probe.backend_description().find("buffered") == std::string::npos) {
    GTEST_SKIP() << "filesystem unexpectedly accepts O_DIRECT: "
                 << probe.backend_description();
  }
}

}  // namespace
}  // namespace fbfs
