// The staging sieve's flat windows (core/scatter.hpp): what a stage
// keeps, drops and folds within a unit, what a retire frees, and how
// windows move between scan groups — clean after every retire and every
// abandoned unit, and never held by two live groups at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/temp_dir.hpp"
#include "common/thread_pool.hpp"
#include "core/scatter.hpp"
#include "graph/multi_bfs.hpp"
#include "graph/program.hpp"
#include "storage/codec.hpp"
#include "storage/device.hpp"

namespace fbfs::core::detail {
namespace {

using graph::BfsProgram;
using Bfs = BfsProgram::Update;
using Msbfs = graph::MultiBfs<8>;

// Two partitions: [0, 8) and [8, 16).
constexpr std::uint64_t kVertices = 16;

template <typename U>
bool same_records(const std::vector<U>& got, const std::vector<U>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(U)) == 0;
}

/// Takes every window `windows` allocated (none may still be held),
/// checks each is all kNoSlot, and gives them back.
void expect_all_idle_and_clean(SieveWindows& windows) {
  const std::size_t allocated = windows.allocated();
  std::vector<std::vector<std::uint32_t>> taken;
  for (std::size_t i = 0; i < allocated; ++i) taken.push_back(windows.take());
  EXPECT_EQ(windows.allocated(), allocated) << "a window was still held";
  for (const std::vector<std::uint32_t>& window : taken) {
    ASSERT_EQ(window.size(), kVertices);
    EXPECT_TRUE(std::all_of(window.begin(), window.end(), [](std::uint32_t s) {
      return s == SieveWindows::kNoSlot;
    }));
  }
  for (std::vector<std::uint32_t>& window : taken) {
    windows.give_back(std::move(window));
  }
}

TEST(SieveWindow, FirstSightingKeepsItsFilePosition) {
  const BfsProgram program;
  const graph::PartitionLayout layout(kVertices, 2);
  SieveWindows windows(kVertices);
  ScatterStage<BfsProgram> stage(program, layout, &windows);
  stage.stage({3, 5});
  stage.stage({1, 5});
  stage.stage({3, 2});  // beats the champion: folded in at its position
  stage.stage({9, 5});
  EXPECT_TRUE(same_records(stage.buckets[0], {{3, 2}, {1, 5}}));
  EXPECT_TRUE(same_records(stage.buckets[1], {{9, 5}}));
  EXPECT_EQ(stage.counts.emitted, 4u);
  EXPECT_EQ(stage.counts.sieved, 1u);
}

TEST(SieveWindow, DominatedLaterUpdateIsDroppedAndCounted) {
  const BfsProgram program;
  const graph::PartitionLayout layout(kVertices, 2);
  SieveWindows windows(kVertices);
  ScatterStage<BfsProgram> stage(program, layout, &windows);
  stage.stage({4, 2});
  stage.stage({4, 2});
  stage.stage({4, 7});
  EXPECT_TRUE(same_records(stage.buckets[0], {{4, 2}}));
  EXPECT_TRUE(stage.buckets[1].empty());
  EXPECT_EQ(stage.counts.emitted, 3u);
  EXPECT_EQ(stage.counts.sieved, 2u);

  // With no windows the stage keeps every update.
  ScatterStage<BfsProgram> unsieved(program, layout, nullptr);
  unsieved.stage({4, 2});
  unsieved.stage({4, 2});
  EXPECT_TRUE(same_records(unsieved.buckets[0], {{4, 2}, {4, 2}}));
  EXPECT_EQ(unsieved.counts.sieved, 0u);
}

TEST(SieveWindow, MaskUpdateOrsIntoTheChampionInPlace) {
  Msbfs program;
  program.width = 8;
  const graph::PartitionLayout layout(kVertices, 2);
  SieveWindows windows(kVertices);
  ScatterStage<Msbfs> stage(program, layout, &windows);
  stage.stage({.dst = 2, .level = 3, .mask = 0b0110});
  stage.stage({.dst = 5, .level = 3, .mask = 0b0001});
  stage.stage({.dst = 2, .level = 3, .mask = 0b0100});  // a subset: dropped
  stage.stage({.dst = 2, .level = 3, .mask = 0b1001});  // new bits: ORed
  EXPECT_TRUE(same_records(stage.buckets[0],
                           {{.dst = 2, .level = 3, .mask = 0b1111},
                            {.dst = 5, .level = 3, .mask = 0b0001}}));
  EXPECT_EQ(stage.counts.emitted, 4u);
  EXPECT_EQ(stage.counts.sieved, 2u);
}

TEST(SieveWindow, FlushStagesTheSameDestinationAfresh) {
  // Each unit is its own window: after a retire, the first update to a
  // destination is a first sighting again and reaches the file.
  TempDir dir("scatter");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const BfsProgram program;
  const graph::PartitionLayout layout(kVertices, 2);
  UpdateFanout<Bfs> fanout;
  for (const char* name : {"q0", "q1"}) {
    fanout.writers.push_back(
        std::make_unique<io::codec::CodecWriter<Bfs>>(dev, name, 4096));
  }
  SieveWindows windows(kVertices);
  ScatterResult total;
  {
    ScatterStage<BfsProgram> stage(program, layout, &windows);
    stage.stage({3, 1});
    stage.stage({3, 1});
    stage.flush(fanout, total);
    EXPECT_TRUE(stage.buckets[0].empty());
    stage.stage({3, 1});
    stage.stage({12, 1});
    stage.flush(fanout, total);
  }
  std::vector<std::uint64_t> pending(2);
  std::vector<std::vector<std::byte>> resident(2);
  fanout.close(pending, 0, resident);
  EXPECT_TRUE(same_records(io::codec::read_all<Bfs>(dev, "q0", {}, 2),
                           {{3, 1}, {3, 1}}));
  EXPECT_TRUE(
      same_records(io::codec::read_all<Bfs>(dev, "q1", {}, 1), {{12, 1}}));
  EXPECT_EQ(total.emitted, 4u);
  EXPECT_EQ(total.sieved, 1u);
  expect_all_idle_and_clean(windows);
}

TEST(SieveWindow, ReturnedWindowIsCleanAfterARetireOrAThrow) {
  const BfsProgram program;
  const graph::PartitionLayout layout(kVertices, 2);
  SieveWindows windows(kVertices);
  {
    ScatterStage<BfsProgram> stage(program, layout, &windows);
    stage.stage({1, 1});
    stage.stage({14, 1});
    stage.clear_buckets();
    stage.stage({6, 1});
    stage.clear_buckets();
  }
  expect_all_idle_and_clean(windows);

  // A throw abandons the unit before its retire: the stage's destructor
  // frees the slots its unflushed buckets hold.
  try {
    ScatterStage<BfsProgram> stage(program, layout, &windows);
    stage.stage({1, 1});
    stage.stage({14, 1});
    stage.stage({1, 1});
    throw std::runtime_error("abandoned");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(windows.allocated(), 1u);
  expect_all_idle_and_clean(windows);

  // The same through the scan runner on a pool: one unit throws mid-way,
  // the rest retire, and every window comes back clean.
  ThreadPool pool(4);
  const ExecContext exec{&pool};
  struct Group {
    ScatterStage<BfsProgram> stage;
  };
  EXPECT_THROW(
      run_ordered(
          exec, 32, 2,
          [&](std::uint64_t, std::uint64_t) {
            return Group{ScatterStage<BfsProgram>(program, layout, &windows)};
          },
          [&](Group& group, std::uint64_t u) {
            for (graph::VertexId v = 0; v < kVertices; v += 3) {
              group.stage.stage({v, 1});
              if (u == 13 && v == 9) throw std::runtime_error("unit 13");
            }
          },
          [&](Group& group, std::uint64_t) { group.stage.clear_buckets(); }),
      std::runtime_error);
  EXPECT_LE(windows.allocated(), 4u);
  expect_all_idle_and_clean(windows);
}

TEST(SieveWindow, LiveGroupsNeverShareAWindow) {
  const BfsProgram program;
  const graph::PartitionLayout layout(kVertices, 2);
  SieveWindows windows(kVertices);
  {
    ScatterStage<BfsProgram> a(program, layout, &windows);
    ScatterStage<BfsProgram> b(program, layout, &windows);
    a.stage({5, 1});
    b.stage({5, 1});  // a first sighting in b's own window
    EXPECT_TRUE(same_records(a.buckets[0], {{5, 1}}));
    EXPECT_TRUE(same_records(b.buckets[0], {{5, 1}}));
    EXPECT_EQ(a.counts.sieved + b.counts.sieved, 0u);
    EXPECT_EQ(windows.allocated(), 2u);
  }
  {
    // A later group reuses an idle window.
    ScatterStage<BfsProgram> c(program, layout, &windows);
    EXPECT_EQ(windows.allocated(), 2u);
  }
  expect_all_idle_and_clean(windows);

  // Concurrent groups on the scan runner: every unit stages each vertex
  // twice, so each must keep exactly one record per vertex — a window
  // another live group wrote into would sieve or misplace some. The
  // runner never has more groups live than the pool has threads.
  ThreadPool pool(4);
  const ExecContext exec{&pool};
  struct Group {
    ScatterStage<BfsProgram> stage;
  };
  constexpr std::uint64_t kUnits = 64;
  std::vector<int> kept_every_vertex(kUnits, 0);
  run_ordered(
      exec, kUnits, 1,
      [&](std::uint64_t, std::uint64_t) {
        return Group{ScatterStage<BfsProgram>(program, layout, &windows)};
      },
      [&](Group& group, std::uint64_t) {
        for (int pass = 0; pass < 2; ++pass) {
          for (graph::VertexId v = 0; v < kVertices; ++v) {
            group.stage.stage({v, 1});
          }
        }
      },
      [&](Group& group, std::uint64_t u) {
        bool ok = group.stage.counts.sieved == kVertices;
        for (std::uint32_t q = 0; q < 2; ++q) {
          const std::vector<Bfs>& bucket = group.stage.buckets[q];
          ok = ok && bucket.size() == kVertices / 2;
          for (std::size_t i = 0; ok && i < bucket.size(); ++i) {
            ok = bucket[i].dst == q * kVertices / 2 + i;
          }
        }
        kept_every_vertex[u] = ok;
        group.stage.counts = {};
        group.stage.clear_buckets();
      });
  EXPECT_EQ(std::count(kept_every_vertex.begin(), kept_every_vertex.end(), 1),
            static_cast<std::ptrdiff_t>(kUnits));
  EXPECT_LE(windows.allocated(), 4u);
  expect_all_idle_and_clean(windows);
}

}  // namespace
}  // namespace fbfs::core::detail
