// GraphProgram: the algorithm/engine split.
//
// A graph computation is expressed once, as three pure functors over
// typed POD records, and executed by either engine (inmem::run — the
// exact in-memory reference — or core::run — the streaming-partition
// scatter/gather engine). Per iteration every engine runs the same
// synchronous phases:
//
//   scatter  for each edge (u,v) with u active (or every edge, when
//            kScatterAllVertices): read u's State, optionally emit one
//            Update addressed to v;
//   gather   for each emitted Update: fold it into its target's State;
//            a `true` return marks the target active next iteration;
//   apply    (only when kNeedsApply) once per vertex per iteration,
//            after all gathers — PageRank's rank-from-accumulator step.
//
// The run stops when an iteration emits no updates, activates no
// vertex, or hits the engine's iteration cap.
//
// THE bit-identity rule: gather must be a commutative, associative,
// exact fold (integer min/add, float min — never float accumulation).
// Engines differ only in the ORDER they scatter edges and deliver
// updates (partition files interleave sources; the shuffle reorders
// updates), so an order-free gather is what makes every engine, at
// every partition count, produce bit-identical states. PageRank
// therefore accumulates contributions in 24.40 fixed point — integer
// addition — instead of summing floats.
//
// kTrimmable is the licence for FastBFS's edge trimming (core::run): a
// program declares it only when a vertex scattered as an active source
// can NEVER be active again, so all of its out-edges are dead from that
// round on and may be dropped from the partition's input file without
// changing a single emitted update. BFS satisfies it (levels only ever
// get set once); WCC and SSSP re-activate sources, PageRank scatters
// everything every round — they declare false and the trimming engine
// degrades to the untrimmed loop for them.
//
// Programs are small value objects; parameters (root, vertex count)
// are constructor state, so one instance drives both the engine run and
// the reference run of an equivalence test.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "graph/types.hpp"

namespace fbfs::graph {

template <typename P>
concept GraphProgram = requires(const P p, const Edge e,
                                typename P::State s,
                                const typename P::State cs,
                                typename P::Update u, bool active) {
  requires std::is_trivially_copyable_v<typename P::State>;
  requires std::is_trivially_copyable_v<typename P::Update>;
  { std::as_const(u).dst } -> std::convertible_to<VertexId>;
  { P::kName } -> std::convertible_to<const char*>;
  { P::kScatterAllVertices } -> std::convertible_to<bool>;
  { P::kNeedsApply } -> std::convertible_to<bool>;
  { P::kRequiresUndirected } -> std::convertible_to<bool>;
  { P::kTrimmable } -> std::convertible_to<bool>;
  { p.init(VertexId{}, std::uint32_t{}, s, active) } -> std::same_as<void>;
  { p.scatter(e, cs, u) } -> std::same_as<bool>;
  { p.gather(std::as_const(u), s) } -> std::same_as<bool>;
  { p.apply(VertexId{}, s) } -> std::same_as<void>;
  { p.output(VertexId{}, cs) };
};

/// True when P declares `kIdempotentGather = true`: delivering the same
/// update twice (or any byte-identical duplicate) cannot change a state
/// or an activation. Min-folds qualify — gathering an equal value hits
/// the `>=` early-out both times. Additive gathers (PageRank) must NOT
/// declare it. This is the licence for the update codec's bitmap format
/// (which collapses duplicate destinations) and for the staging sieve.
template <typename P>
inline constexpr bool kIdempotentGatherV = requires {
  requires P::kIdempotentGather == true;
};

/// A program the staging-buffer sieve can run on, via a program-supplied
/// dominance predicate plus a merge:
///
///   * `dominates(a, b)` — true when delivering `b` after `a` can never
///     change the target's state or activation, so `b` may be dropped at
///     the staging buffer before it reaches the shuffle writers.
///     Min-folds use value order (any staged champion with an equal-or-
///     better value dominates); mask folds (MultiBfs) use subset order.
///   * `sieve_merge(champion, u)` — called when the staged champion does
///     NOT dominate `u`: fold `u` into the champion so the single staged
///     record is equivalent to delivering both. Min-folds replace the
///     champion; mask folds OR the masks.
///
/// Only exact for idempotent-gather programs, hence the conjunction.
template <typename P>
concept SieveCapable = kIdempotentGatherV<P> &&
    requires(const P p, typename P::Update u) {
      { p.dominates(std::as_const(u), std::as_const(u)) }
          -> std::same_as<bool>;
      { p.sieve_merge(u, std::as_const(u)) } -> std::same_as<void>;
    };

/// A program whose updates core::run can build without source State:
/// `pull(e, round, out)` produces the update edge e would carry to e.dst
/// GIVEN ONLY that e.src is in the round-r frontier. Core uses it in
/// both directions — bottom-up, where an in-edge scan of dst's
/// partition has no source State loaded, and top-down, where it skips
/// loading the scattered partition's state file altogether. The
/// contract:
///
///   * the engine calls pull(e, r, out) only when e.src is active in
///     round r, and the emitted update must be byte-identical to what
///     scatter(e, state-of-src-at-round-r, out) would emit;
///   * every update pulled for the same dst in the same round must be
///     byte-identical (so dropping all but the first — the per-vertex
///     claimed short-circuit — cannot change any state), which is why
///     the concept additionally requires an idempotent gather.
///
/// BFS satisfies both: a round-r frontier vertex has level exactly r,
/// so pull emits {dst, r+1} — the same record any frontier in-neighbor
/// would push. Level-agnostic programs (WCC's labels, SSSP's
/// distances, PageRank's ranks) cannot reconstruct the update from the
/// round number alone and stay top-down.
template <typename P>
concept PullCapable = kIdempotentGatherV<P> &&
    requires(const P p, const Edge e, typename P::Update u) {
      { p.pull(e, std::uint32_t{}, u) } -> std::same_as<bool>;
    };

/// A batched multi-source program (MultiBfs): per-vertex state carries a
/// 64-bit seen/frontier mask pair the engine can mirror into flat arrays
/// (core::detail::MaskStateTracker) to drive trimming (a vertex is
/// retired once `seen_mask(s) == full_mask()` — saturated by every
/// query), bottom-up claiming, and the direction model's per-query
/// frontier densities. `pull_masked(e, round, mask, out)` builds the
/// update e would carry to e.dst given src's frontier mask — restricted
/// by the caller bottom-up (the engine passes `frontier_mask(src) &
/// ~already-delivered`, so a dst's pulled masks never overlap), whole
/// in core's top-down scatter, where it replaces scatter(e, state) for
/// an active source byte for byte — and returns false when the mask is
/// empty. `arrival(v, s)` is the arrival-log record of a vertex the
/// latest init or gather activated (engines collect them into
/// RunResult::arrivals; see graph/multi_bfs.hpp). Exactness needs an
/// idempotent OR-fold gather, hence the conjunction.
template <typename P>
concept MaskedProgram = kIdempotentGatherV<P> &&
    requires(const P p, const Edge e, const typename P::State cs,
             typename P::Update u) {
      { p.frontier_mask(cs) } -> std::same_as<std::uint64_t>;
      { p.seen_mask(cs) } -> std::same_as<std::uint64_t>;
      { p.full_mask() } -> std::same_as<std::uint64_t>;
      { p.pull_masked(e, std::uint32_t{}, std::uint64_t{}, u) }
          -> std::same_as<bool>;
      { p.arrival(VertexId{}, cs) } -> std::same_as<typename P::Update>;
    };

/// Deterministic per-edge weight in [1, 2): SSSP needs weights, edge
/// files store none, and both engines see the same (src, dst) pairs —
/// so both derive the identical weight from the edge digest.
inline float edge_weight(const Edge& e) {
  return 1.0f + static_cast<float>(edge_digest(e) & 0xffff) / 65536.0f;
}

// --------------------------------------------------------------- BFS

inline constexpr std::uint32_t kUnreachedLevel =
    std::numeric_limits<std::uint32_t>::max();

struct BfsProgram {
  static constexpr const char* kName = "bfs";
  static constexpr bool kScatterAllVertices = false;
  static constexpr bool kNeedsApply = false;
  static constexpr bool kRequiresUndirected = false;
  // Every update of round r carries level r+1, so a vertex activates at
  // most once (a later update can never beat its level): a source
  // scattered once never scatters again, and its out-edges are dead —
  // the property FastBFS's edge trimming (core::run) relies on.
  static constexpr bool kTrimmable = true;
  // Min-fold over levels: duplicate delivery is a no-op.
  static constexpr bool kIdempotentGather = true;

  struct State {
    std::uint32_t level = kUnreachedLevel;
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t level = 0;
  };

  VertexId root = 0;

  void init(VertexId v, std::uint32_t /*out_degree*/, State& s,
            bool& active) const {
    s.level = v == root ? 0 : kUnreachedLevel;
    active = v == root;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.level + 1};
    return true;
  }
  /// The bottom-up hook (PullCapable): a round-r frontier source has
  /// level exactly r (levels are set once, by the round that claims
  /// them), so the update e.dst would receive is reconstructible from
  /// the round number alone — byte-identical to scatter's.
  bool pull(const Edge& e, std::uint32_t round, Update& out) const {
    out = {e.dst, round + 1};
    return true;
  }
  bool gather(const Update& u, State& dst) const {
    if (u.level >= dst.level) return false;
    dst.level = u.level;
    return true;
  }
  void apply(VertexId, State&) const {}
  /// Within one round every update to a vertex carries the same level,
  /// so any staged champion dominates every later same-dst update.
  bool dominates(const Update& a, const Update& b) const {
    return b.level >= a.level;
  }
  void sieve_merge(Update& champion, const Update& u) const { champion = u; }
  std::uint32_t output(VertexId, const State& s) const { return s.level; }
};
static_assert(sizeof(BfsProgram::Update) == 8);

// --------------------------------------------------------------- WCC

/// Minimum-label propagation. Converges to weakly connected components
/// only when every edge is present in both directions, hence
/// kRequiresUndirected (engines CHECK the input's undirected flag;
/// symmetrize_edge_list produces a conforming copy of any graph).
struct WccProgram {
  static constexpr const char* kName = "wcc";
  static constexpr bool kScatterAllVertices = false;
  static constexpr bool kNeedsApply = false;
  static constexpr bool kRequiresUndirected = true;
  // A vertex re-activates whenever a smaller label reaches it, so its
  // out-edges stay useful after a scatter: not trimmable.
  static constexpr bool kTrimmable = false;
  // Min-fold over labels: duplicate delivery is a no-op.
  static constexpr bool kIdempotentGather = true;

  struct State {
    std::uint32_t label = 0;
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t label = 0;
  };

  void init(VertexId v, std::uint32_t /*out_degree*/, State& s,
            bool& active) const {
    s.label = v;
    active = true;  // every vertex seeds its own label
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.label};
    return true;
  }
  bool gather(const Update& u, State& dst) const {
    if (u.label >= dst.label) return false;
    dst.label = u.label;
    return true;
  }
  void apply(VertexId, State&) const {}
  bool dominates(const Update& a, const Update& b) const {
    return b.label >= a.label;
  }
  void sieve_merge(Update& champion, const Update& u) const { champion = u; }
  std::uint32_t output(VertexId, const State& s) const { return s.label; }
};

// -------------------------------------------------------------- SSSP

struct SsspProgram {
  static constexpr const char* kName = "sssp";
  static constexpr bool kScatterAllVertices = false;
  static constexpr bool kNeedsApply = false;
  static constexpr bool kRequiresUndirected = false;
  // Distances improve repeatedly (weights are non-uniform), so sources
  // re-activate: not trimmable.
  static constexpr bool kTrimmable = false;
  // Min over floats is exact, so duplicate delivery is still a no-op.
  static constexpr bool kIdempotentGather = true;

  struct State {
    float dist = std::numeric_limits<float>::infinity();
  };
  struct Update {
    VertexId dst = 0;
    float dist = 0.0f;
  };

  VertexId root = 0;

  void init(VertexId v, std::uint32_t /*out_degree*/, State& s,
            bool& active) const {
    s.dist = v == root ? 0.0f : std::numeric_limits<float>::infinity();
    active = v == root;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.dist + edge_weight(e)};
    return true;
  }
  // Min over floats is exact, so the fold stays order-free even though
  // the path sums are floating point.
  bool gather(const Update& u, State& dst) const {
    if (u.dist >= dst.dist) return false;
    dst.dist = u.dist;
    return true;
  }
  void apply(VertexId, State&) const {}
  bool dominates(const Update& a, const Update& b) const {
    return b.dist >= a.dist;
  }
  void sieve_merge(Update& champion, const Update& u) const { champion = u; }
  float output(VertexId, const State& s) const { return s.dist; }
};

// ---------------------------------------------------------- PageRank

struct PageRankProgram {
  static constexpr const char* kName = "pagerank";
  /// Every vertex contributes every iteration; the engine's iteration
  /// cap is the stopping rule (the paper's fixed-round comparisons).
  static constexpr bool kScatterAllVertices = true;
  static constexpr bool kNeedsApply = true;
  static constexpr bool kRequiresUndirected = false;
  // Every edge carries a contribution every round: nothing ever dies.
  static constexpr bool kTrimmable = false;

  /// 24.40 fixed point: contributions are <= 1, partial sums <= N < 2^24.
  static constexpr double kFixedOne = static_cast<double>(1ull << 40);
  static constexpr double kDamping = 0.85;

  struct State {
    std::uint64_t accum = 0;  // fixed-point sum of this round's inputs
    float rank = 0.0f;
    std::uint32_t out_degree = 0;
  };
  struct Update {
    std::uint64_t contrib = 0;  // fixed-point rank / out_degree
    VertexId dst = 0;
    std::uint32_t pad = 0;  // keep the on-disk record fully initialised
  };

  std::uint64_t num_vertices = 1;

  void init(VertexId /*v*/, std::uint32_t out_degree, State& s,
            bool& active) const {
    s = {0, static_cast<float>(1.0 / static_cast<double>(num_vertices)),
         out_degree};
    active = true;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {static_cast<std::uint64_t>(
               std::llround(static_cast<double>(src.rank) /
                            static_cast<double>(src.out_degree) * kFixedOne)),
           e.dst, 0};
    return true;
  }
  bool gather(const Update& u, State& dst) const {
    dst.accum += u.contrib;  // integer add: exact and order-free
    return true;
  }
  void apply(VertexId, State& s) const {
    s.rank = static_cast<float>(
        (1.0 - kDamping) / static_cast<double>(num_vertices) +
        kDamping * (static_cast<double>(s.accum) / kFixedOne));
    s.accum = 0;
  }
  float output(VertexId, const State& s) const { return s.rank; }
};
static_assert(sizeof(PageRankProgram::Update) == 16);

static_assert(GraphProgram<BfsProgram>);
static_assert(GraphProgram<WccProgram>);
static_assert(GraphProgram<SsspProgram>);
static_assert(GraphProgram<PageRankProgram>);

static_assert(SieveCapable<BfsProgram>);
static_assert(SieveCapable<WccProgram>);
static_assert(SieveCapable<SsspProgram>);

// Only BFS can reconstruct a frontier source's update from the round
// number; the others' updates depend on source state the bottom-up scan
// never loads.
static_assert(PullCapable<BfsProgram>);
static_assert(!PullCapable<WccProgram>);
static_assert(!PullCapable<SsspProgram>);
static_assert(!PullCapable<PageRankProgram>);
// PageRank's additive gather counts every delivery: sieving or
// collapsing duplicates would change ranks.
static_assert(!kIdempotentGatherV<PageRankProgram>);
static_assert(!SieveCapable<PageRankProgram>);

// Single-query programs carry no frontier masks; only MultiBfs
// (graph/multi_bfs.hpp) models MaskedProgram.
static_assert(!MaskedProgram<BfsProgram>);
static_assert(!MaskedProgram<WccProgram>);
static_assert(!MaskedProgram<SsspProgram>);
static_assert(!MaskedProgram<PageRankProgram>);

}  // namespace fbfs::graph
