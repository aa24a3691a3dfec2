// Work-batching helpers the parallel engines are built on: range
// splitting, pool fan-out with exception propagation, the OrderedGate,
// and the run_ordered scan runner that keeps unit output
// byte-deterministic.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fbfs {
namespace {

TEST(SplitRange, CoversEveryIndexOnceInOrder) {
  for (const std::uint64_t n : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (const unsigned pieces : {1u, 2u, 3u, 8u, 200u}) {
      const std::vector<IndexRange> ranges = split_range(n, pieces);
      std::uint64_t expected_begin = 0;
      for (const IndexRange& r : ranges) {
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_GT(r.end, r.begin);  // empty subranges are dropped
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n) << n << " over " << pieces;
      EXPECT_LE(ranges.size(), pieces);
      // Near-equal: sizes differ by at most one.
      if (!ranges.empty()) {
        const std::uint64_t smallest = ranges.back().size();
        const std::uint64_t largest = ranges.front().size();
        EXPECT_LE(largest - smallest, 1u);
      }
    }
  }
}

TEST(ParallelForRanges, SumsMatchAndExceptionsPropagate) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> values(10'000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<std::uint64_t> sum{0};
  parallel_for_ranges(pool, values.size(), 8, [&](const IndexRange& r) {
    std::uint64_t local = 0;
    for (std::uint64_t i = r.begin; i < r.end; ++i) local += values[i];
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10'000ull * 9'999 / 2);

  // A throwing range surfaces after all ranges ran (no task outlives
  // its captures), and the other ranges still completed.
  std::atomic<unsigned> ran{0};
  EXPECT_THROW(
      parallel_for_ranges(pool, 100, 4,
                          [&](const IndexRange& r) {
                            ran.fetch_add(1);
                            if (r.begin == 0) {
                              throw std::runtime_error("range failed");
                            }
                          }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 4u);
}

TEST(OrderedGate, RetiresTicketsInSubmissionOrderOnThePool) {
  // The scatter hand-off shape: chunk tasks do unordered work, then
  // append to a shared log strictly in ticket order. FIFO task pop is
  // what makes blocking in wait_turn deadlock-free.
  ThreadPool pool(4);
  constexpr std::uint64_t kTickets = 200;
  OrderedGate gate;
  std::vector<std::uint64_t> log;
  std::vector<std::future<void>> tasks;
  tasks.reserve(kTickets);
  for (std::uint64_t c = 0; c < kTickets; ++c) {
    tasks.push_back(pool.submit([&gate, &log, c] {
      gate.wait_turn(c);
      log.push_back(c);  // gate-serialised: no lock needed
      gate.complete(c);
    }));
  }
  join_all(tasks);
  ASSERT_EQ(log.size(), kTickets);
  for (std::uint64_t c = 0; c < kTickets; ++c) EXPECT_EQ(log[c], c);
}

TEST(RunOrdered, RetiresEveryUnitOnceInUnitOrder) {
  ThreadPool pool(4);
  for (const ExecContext exec : {ExecContext{}, ExecContext{&pool}}) {
    for (const std::uint64_t group : {1u, 3u}) {
      for (const std::uint64_t units : {0u, 1u, 10u, 37u}) {
        SCOPED_TRACE("T=" + std::to_string(exec.threads()) + " group=" +
                     std::to_string(group) + " units=" +
                     std::to_string(units));
        std::vector<int> worked(units, 0);  // one slot per unit: no race
        std::vector<std::uint64_t> retired;
        run_ordered(
            exec, units, group,
            [&](std::uint64_t first, std::uint64_t n) {
              EXPECT_EQ(first % group, 0u);
              EXPECT_EQ(n, std::min(group, units - first));
              return first;
            },
            [&](std::uint64_t& first, std::uint64_t u) {
              EXPECT_GE(u, first);
              EXPECT_LT(u, first + group);
              // Early units work longest, so later groups finish first.
              std::this_thread::sleep_for(
                  std::chrono::microseconds((units - u) % 4 * 100));
              ++worked[u];
            },
            [&](std::uint64_t&, std::uint64_t u) {
              EXPECT_EQ(worked[u], 1);
              retired.push_back(u);  // retire is serialised: no lock
            });
        ASSERT_EQ(retired.size(), units);
        for (std::uint64_t u = 0; u < units; ++u) EXPECT_EQ(retired[u], u);
      }
    }
  }
}

TEST(RunOrdered, AThrowingStepJoinsEveryTaskAndRethrows) {
  // Unit 13 of 37 fails in groups of 3, so its group is units 12..14.
  // Whichever step throws, the call returns (every ticket is completed)
  // and rethrows; whatever retired did so in order, including every
  // unit before the failing group.
  ThreadPool pool(4);
  const ExecContext exec{&pool};
  constexpr std::uint64_t kUnits = 37;
  constexpr std::uint64_t kGroup = 3;
  constexpr std::uint64_t kFailing = 13;
  constexpr std::uint64_t kGroupFirst = kFailing / kGroup * kGroup;
  for (const char* step : {"load", "work", "retire"}) {
    SCOPED_TRACE(step);
    const std::string failing_step = step;
    std::vector<std::uint64_t> retired;
    EXPECT_THROW(
        run_ordered(
            exec, kUnits, kGroup,
            [&](std::uint64_t first, std::uint64_t) {
              if (failing_step == "load" && first == kGroupFirst) {
                throw std::runtime_error("load failed");
              }
              return first;
            },
            [&](std::uint64_t&, std::uint64_t u) {
              if (failing_step == "work" && u == kFailing) {
                throw std::runtime_error("work failed");
              }
            },
            [&](std::uint64_t&, std::uint64_t u) {
              if (failing_step == "retire" && u == kFailing) {
                throw std::runtime_error("retire failed");
              }
              retired.push_back(u);
            }),
        std::runtime_error);
    EXPECT_TRUE(std::is_sorted(retired.begin(), retired.end()));
    EXPECT_EQ(std::adjacent_find(retired.begin(), retired.end()),
              retired.end());
    ASSERT_GE(retired.size(), kGroupFirst);
    for (std::uint64_t u = 0; u < kGroupFirst; ++u) EXPECT_EQ(retired[u], u);
    // Nothing of the failing group retires from the failing unit on.
    for (std::uint64_t u = kFailing; u < kGroupFirst + kGroup; ++u) {
      EXPECT_EQ(std::find(retired.begin(), retired.end(), u), retired.end())
          << "unit " << u;
    }
  }
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(resolve_thread_count(kMaxEngineThreads), kMaxEngineThreads);
}

TEST(ResolveThreadCountDeath, RejectsAbsurdCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(resolve_thread_count(kMaxEngineThreads + 1),
               "exceeds the sanity cap");
}

}  // namespace
}  // namespace fbfs
