// Work-batching helpers over ThreadPool — the engines' execution mode.
//
// An ExecContext either borrows a pool (parallel scatter/gather) or
// holds none (the serial path, byte-for-byte the single-threaded
// engine). parallel_for_ranges splits an index range into contiguous
// per-worker pieces; run_ordered is the engines' one scan pipeline:
// units are loaded and worked on concurrently and retired strictly in
// unit order through an OrderedGate, which keeps the scatter phase's
// update shuffle and stay survivors deterministic at every thread
// count.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace fbfs {

/// Ceiling on any configured worker-thread count; anything above it is
/// a config typo, not a machine (CHECK-fatal in resolve_thread_count
/// and Config::get_threads).
inline constexpr std::uint32_t kMaxEngineThreads = 512;

/// 0 -> one worker per hardware thread (at least 1); otherwise the
/// requested count. CHECK-fatal above kMaxEngineThreads.
inline unsigned resolve_thread_count(std::uint32_t requested) {
  FB_CHECK_MSG(requested <= kMaxEngineThreads,
               "thread count " << requested << " exceeds the sanity cap of "
                               << kMaxEngineThreads);
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Execution mode handed through the engine internals: a borrowed pool
/// (parallel) or none (serial). The pool outlives every phase that uses
/// the context.
struct ExecContext {
  ThreadPool* pool = nullptr;

  unsigned threads() const { return pool != nullptr ? pool->size() : 1u; }
  bool parallel() const { return threads() > 1; }
};

struct IndexRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive

  std::uint64_t size() const { return end - begin; }
};

/// At most `pieces` contiguous, near-equal subranges of [0, n); the
/// first (n mod pieces) get one extra element. Empty subranges are not
/// returned, so the result may hold fewer than `pieces` entries.
inline std::vector<IndexRange> split_range(std::uint64_t n, unsigned pieces) {
  FB_CHECK_MSG(pieces > 0, "split_range needs at least one piece");
  std::vector<IndexRange> out;
  const std::uint64_t base = n / pieces;
  const std::uint64_t extra = n % pieces;
  std::uint64_t begin = 0;
  for (unsigned i = 0; i < pieces && begin < n; ++i) {
    const std::uint64_t size = base + (i < extra ? 1 : 0);
    if (size == 0) break;
    out.push_back({begin, begin + size});
    begin += size;
  }
  return out;
}

/// Waits for every future, then rethrows the first captured exception
/// (all tasks are always joined first, so no task outlives its
/// captures).
inline void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

/// Runs fn(range) over [0, n) split into at most `pieces` subranges, on
/// the pool, and joins. The first task exception is rethrown after all
/// tasks finished.
template <typename Fn>
void parallel_for_ranges(ThreadPool& pool, std::uint64_t n, unsigned pieces,
                         Fn&& fn) {
  const std::vector<IndexRange> ranges = split_range(n, pieces);
  std::vector<std::future<void>> futures;
  futures.reserve(ranges.size());
  for (const IndexRange& r : ranges) {
    futures.push_back(pool.submit([&fn, r] { fn(r); }));
  }
  join_all(futures);
}

/// Serialises hand-offs in ticket order: producer c blocks in
/// wait_turn(c) until every ticket below c has completed. Safe to drive
/// from ThreadPool tasks BECAUSE the pool pops tasks FIFO: when ticket
/// c's task runs, every lower ticket's task has already started, so the
/// lowest unfinished ticket is always running and the chain advances.
/// A producer that fails must still complete its ticket (after
/// wait_turn) or every later ticket deadlocks.
class OrderedGate {
 public:
  void wait_turn(std::uint64_t ticket) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return next_ == ticket; });
  }

  void complete(std::uint64_t ticket) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FB_CHECK_MSG(next_ == ticket,
                   "OrderedGate ticket " << ticket << " completed out of turn ("
                                         << next_ << " expected)");
      ++next_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
};

/// Runs units [0, num_units) through load -> work -> retire. Units are
/// cut into groups of `group_units` consecutive units (at least one);
/// `load(first, n)` builds a group's state (its reads, its staging
/// buffers) and returns it, `work(group, u)` processes unit u, and
/// `retire(group, u)` hands unit u on.
///
/// Serial context: everything runs inline, one group at a time. With a
/// pool, each group is one pool task, so loads and work of different
/// groups overlap, while retire runs strictly in unit order, one call
/// at a time (an OrderedGate ticket per unit) — whatever retire touches
/// needs no lock. If a step throws, its task skips the rest of its work
/// but still completes every ticket it owes, so later units never
/// deadlock; the first exception is rethrown after every task has
/// joined.
template <typename Load, typename Work, typename Retire>
void run_ordered(const ExecContext& exec, std::uint64_t num_units,
                 std::uint64_t group_units, Load&& load, Work&& work,
                 Retire&& retire) {
  using Group = std::invoke_result_t<Load&, std::uint64_t, std::uint64_t>;
  group_units = std::max<std::uint64_t>(1, group_units);
  OrderedGate gate;
  const auto run_group = [&](std::uint64_t first) {
    const std::uint64_t end = std::min(num_units, first + group_units);
    std::exception_ptr failure;
    const auto attempt = [&failure](auto&& step) {
      if (failure) return;
      try {
        step();
      } catch (...) {
        failure = std::current_exception();
      }
    };
    std::optional<Group> group;
    attempt([&] { group.emplace(load(first, end - first)); });
    for (std::uint64_t u = first; u < end; ++u) {
      attempt([&] { work(*group, u); });
      gate.wait_turn(u);
      attempt([&] { retire(*group, u); });
      gate.complete(u);
    }
    if (failure) std::rethrow_exception(failure);
  };

  if (!exec.parallel()) {
    for (std::uint64_t first = 0; first < num_units; first += group_units) {
      run_group(first);
    }
    return;
  }
  std::vector<std::future<void>> tasks;
  tasks.reserve((num_units + group_units - 1) / group_units);
  for (std::uint64_t first = 0; first < num_units; first += group_units) {
    tasks.push_back(
        exec.pool->submit([&run_group, first] { run_group(first); }));
  }
  join_all(tasks);
}

}  // namespace fbfs
