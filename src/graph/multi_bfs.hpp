// MultiBfs: MS-BFS-style batched traversal — up to 64 BFS queries share
// one edge scan.
//
// Per-vertex state carries one bit per query in two 64-bit masks:
// `seen` (queries that have reached the vertex) and `frontier` (queries
// for which the vertex is in the current round's frontier). Scatter
// pushes the source's whole frontier mask along each out-edge; gather is
// an idempotent, order-free OR-fold — `fresh = mask & ~seen` — so the
// program runs unmodified through every existing engine layer: the
// unit-ordered update shuffle, the staging sieve (subset dominance +
// mask-OR merge), the codec auto-selection, core's trimming (a vertex is
// retired once seen by ALL queries, not once active: it re-enters the
// frontier whenever a new query reaches it), and bottom-up rounds (a
// dst is claimed once its mask saturates).
//
// The level invariant that makes per-query results exact: every update
// emitted in round r carries level r+1 (an active source in round r has
// mark == r — it was activated, and marked, by round r-1's updates; the
// roots scatter mark 0 in round 0). So for each query bit b, the first
// round whose update reaches v with bit b set is exactly BFS-from-
// roots[b]'s level of v.
//
// Per-query levels are NOT kept in State (24 bytes, streamed every
// round); they leave the engine as an ARRIVAL LOG. After init and after
// every gather, each vertex that round activated is logged once as
// arrival(v, s) = {v, mark, frontier}: right after a gather, frontier is
// exactly the set of query bits that first reached v at level `mark`,
// so the log names every (vertex, query) pair once, with its level.
// Engines collect the records into RunResult::arrivals, round by round
// and in id order within a round, and replay() turns the log into
// per-query BfsProgram states in one pass. The log holds at most
// min(rounds, 64) records per reached vertex (each record carries at
// least one fresh bit).
//
// Why State keeps a per-round `mark`: gather must clear the stale
// frontier of a vertex the first time a NEW round's update lands on it
// (frontier is "this round's arrivals", seen is forever). Updates carry
// their round's level, so "u.level != s.mark" detects the round change
// without the engine telling states when a round ends — order-free,
// because every update of one round carries the same level.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "graph/program.hpp"
#include "graph/types.hpp"

namespace fbfs::graph {

/// Widest batch one MultiBfs traversal packs (one bit per query in a
/// uint64_t mask). engine::run_batch splits wider source lists.
inline constexpr std::uint32_t kMaxBatchQueries = 64;

template <std::uint32_t B = kMaxBatchQueries>
struct MultiBfs {
  static_assert(B >= 1 && B <= kMaxBatchQueries,
                "query masks are one uint64_t");

  static constexpr const char* kName = "msbfs";

  struct State {
    std::uint64_t seen = 0;      // queries that reached this vertex
    std::uint64_t frontier = 0;  // queries that reached it THIS round
    std::uint32_t mark = 0;      // level of the round `frontier` is from
    std::uint32_t pad = 0;       // keep the on-disk record fully defined
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t level = 0;
    std::uint64_t mask = 0;  // queries whose frontier crossed the edge
  };

  std::array<VertexId, B> roots{};  // roots[b] = query b's source
  std::uint32_t width = 0;          // live queries: bits [0, width)

  std::uint64_t full_mask() const {
    return width >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << width) - 1;
  }

  void init(VertexId v, State& s, bool& active) const {
    s.seen = 0;
    s.frontier = 0;
    s.mark = 0;
    s.pad = 0;
    for (std::uint32_t b = 0; b < width; ++b) {
      if (roots[b] != v) continue;
      const std::uint64_t bit = std::uint64_t{1} << b;
      s.seen |= bit;
      s.frontier |= bit;
    }
    active = s.seen != 0;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.mark + 1, src.frontier};
    return true;
  }
  /// The bottom-up hook (MaskedProgram): like BfsProgram::pull, but the
  /// caller supplies the source's frontier mask (restricted to the bits
  /// dst still needs) since the in-edge scan has no source State loaded.
  bool pull_masked(const Edge& e, std::uint32_t round, std::uint64_t mask,
                   Update& out) const {
    out = {e.dst, round + 1, mask};
    return mask != 0;
  }
  std::uint64_t frontier_mask(const State& s) const { return s.frontier; }
  std::uint64_t seen_mask(const State& s) const { return s.seen; }
  /// OR-fold with a fresh-bits early-out: duplicate delivery is a no-op.
  bool gather(const Update& u, State& s) const {
    const std::uint64_t fresh = u.mask & ~s.seen;
    // The early-out must come BEFORE any mutation: top-down rounds
    // deliver redundant updates that bottom-up rounds (restricted
    // masks + claiming) never emit, and direction equivalence needs
    // both to leave byte-identical states.
    if (fresh == 0) return false;
    if (u.level != s.mark) {  // first arrival of a new round
      s.frontier = 0;
      s.mark = u.level;
    }
    s.seen |= fresh;
    s.frontier |= fresh;
    return true;
  }
  /// Subset dominance: b is redundant after a when it brings no new
  /// query bits. Same-dst updates within one scatter window all carry
  /// the same level (the round invariant above), which is what makes
  /// the mask-OR merge equivalent to delivering both.
  bool dominates(const Update& a, const Update& b) const {
    return b.level >= a.level && (b.mask & ~a.mask) == 0;
  }
  void sieve_merge(Update& champion, const Update& u) const {
    champion.mask |= u.mask;
  }

  /// The arrival-log record of a vertex the latest init or gather
  /// activated (MaskedProgram): its level and the query bits that first
  /// reached it at that level. Update-shaped, so a log is a plain
  /// vector<Update>.
  Update arrival(VertexId v, const State& s) const {
    return {v, s.mark, s.frontier};
  }

  /// Replays an arrival log (RunResult::arrivals) into every query's
  /// standalone-BFS view of a finished batch run: result[b] is
  /// bit-identical to inmem::run(BfsProgram{.root = roots[b]}).states
  /// (vertices the log never names stay kUnreachedLevel). One pass over
  /// the log, one write per (vertex, query) pair reached.
  std::vector<std::vector<BfsProgram::State>> replay(
      std::span<const Update> arrivals, std::uint64_t num_vertices) const {
    std::vector<std::vector<BfsProgram::State>> out(
        width, std::vector<BfsProgram::State>(num_vertices));
    const std::uint64_t full = full_mask();
    for (const Update& a : arrivals) {
      FB_CHECK_MSG(a.dst < num_vertices && (a.mask & ~full) == 0,
                   "arrival {" << a.dst << ", " << a.level << ", " << a.mask
                               << "} outside a width-" << width << ", "
                               << num_vertices << "-vertex batch");
      for (std::uint64_t bits = a.mask; bits != 0; bits &= bits - 1) {
        out[static_cast<std::size_t>(std::countr_zero(bits))][a.dst].level =
            a.level;
      }
    }
    return out;
  }
};

static_assert(GraphProgram<MultiBfs<64>>);
static_assert(MaskedProgram<MultiBfs<64>>);
static_assert(MaskedProgram<MultiBfs<7>>);
// Masked programs pull through pull_masked, not the single-query hook.
static_assert(!PullCapable<MultiBfs<64>>);
// dst at offset 0 (RoutedRecord), one 8-byte mask + dst/level packed.
static_assert(sizeof(MultiBfs<64>::Update) == 16);
// seen + frontier + mark + pad: per-query levels live in the arrival
// log, not in the state every round streams.
static_assert(sizeof(MultiBfs<64>::State) == 24);

}  // namespace fbfs::graph
