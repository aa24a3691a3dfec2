// GraphProgram: the traversal/engine split.
//
// A traversal is expressed once, as pure functors over typed POD
// records, and executed by either engine (inmem::run — the exact
// in-memory reference — or core::run — the streaming-partition
// scatter/gather engine). Per iteration every engine runs the same
// synchronous phases:
//
//   scatter  for each edge (u,v) with u active: read u's State,
//            optionally emit one Update addressed to v;
//   gather   for each emitted Update: fold it into its target's State;
//            a `true` return marks the target active next iteration.
//
// The run stops when an iteration emits no updates, activates no
// vertex, or hits the engine's iteration cap.
//
// THE bit-identity rule: gather must be a commutative, associative,
// exact and idempotent fold (a min over levels, an OR over query
// masks). Engines differ only in the ORDER they scatter
// edges and deliver updates (partition files interleave sources; the
// shuffle reorders updates), so an order-free gather is what makes
// every engine, at every partition count, produce bit-identical
// states. Idempotence
// (a byte-identical duplicate can change no state and no activation)
// is the licence for the update codec's bitmap format, which collapses
// duplicate destinations, and for the staging sieve:
//
//   * `dominates(a, b)` — true when delivering `b` after `a` can never
//     change the target's state or activation, so `b` may be dropped at
//     the staging buffer before it reaches the shuffle writers.
//     Min-folds use value order (any staged champion with an equal-or-
//     better value dominates); mask folds (MultiBfs) use subset order.
//   * `sieve_merge(champion, u)` — called when the staged champion does
//     NOT dominate `u`: fold `u` into the champion so the single staged
//     record is equivalent to delivering both. Min-folds replace the
//     champion; mask folds OR the masks.
//
// BFS levels are set once. Every update of round r carries level r+1,
// so a later update can never beat a level already gathered: a vertex
// activates at most once per query, and a source scattered once has
// dead out-edges from then on — the property FastBFS's edge trimming
// (core::run) relies on. It is also what lets core build every update
// from the round number alone (PullCapable, MaskedProgram below), so
// no scan reads vertex state. GraphProgram requires one of those two
// state-free hooks: a program without set-once levels has no place in
// this engine.
//
// Programs are small value objects; parameters (roots) are constructor
// state, so one instance drives both the engine run and the reference
// run of an equivalence test.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "graph/types.hpp"

namespace fbfs::graph {

/// A program whose updates core::run can build without source State:
/// `pull(e, round, out)` produces the update edge e would carry to e.dst
/// GIVEN ONLY that e.src is in the round-r frontier. Core uses it in
/// both directions — bottom-up, where an in-edge scan of dst's
/// partition has no source State loaded, and top-down, where it never
/// loads the scattered partition's state file. The contract:
///
///   * the engine calls pull(e, r, out) only when e.src is active in
///     round r, and the emitted update must be byte-identical to what
///     scatter(e, state-of-src-at-round-r, out) would emit;
///   * every update pulled for the same dst in the same round must be
///     byte-identical (so dropping all but the first — the per-vertex
///     claimed short-circuit — cannot change any state under the
///     idempotent gather).
///
/// BFS satisfies both: a round-r frontier vertex has level exactly r,
/// so pull emits {dst, r+1} — the same record any frontier in-neighbor
/// would push.
template <typename P>
concept PullCapable = requires(const P p, const Edge e, typename P::Update u) {
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
/// RunResult::arrivals; see graph/multi_bfs.hpp).
template <typename P>
concept MaskedProgram =
    requires(const P p, const Edge e, const typename P::State cs,
             typename P::Update u) {
      { p.frontier_mask(cs) } -> std::same_as<std::uint64_t>;
      { p.seen_mask(cs) } -> std::same_as<std::uint64_t>;
      { p.full_mask() } -> std::same_as<std::uint64_t>;
      { p.pull_masked(e, std::uint32_t{}, std::uint64_t{}, u) }
          -> std::same_as<bool>;
      { p.arrival(VertexId{}, cs) } -> std::same_as<typename P::Update>;
    };

template <typename P>
concept GraphProgram = requires(const P p, const Edge e,
                                typename P::State s,
                                const typename P::State cs,
                                typename P::Update u, bool active) {
  requires std::is_trivially_copyable_v<typename P::State>;
  requires std::is_trivially_copyable_v<typename P::Update>;
  { std::as_const(u).dst } -> std::convertible_to<VertexId>;
  { P::kName } -> std::convertible_to<const char*>;
  { p.init(VertexId{}, s, active) } -> std::same_as<void>;
  { p.scatter(e, cs, u) } -> std::same_as<bool>;
  { p.gather(std::as_const(u), s) } -> std::same_as<bool>;
  { p.dominates(std::as_const(u), std::as_const(u)) } -> std::same_as<bool>;
  { p.sieve_merge(u, std::as_const(u)) } -> std::same_as<void>;
  requires PullCapable<P> || MaskedProgram<P>;
};

// --------------------------------------------------------------- BFS

inline constexpr std::uint32_t kUnreachedLevel =
    std::numeric_limits<std::uint32_t>::max();

struct BfsProgram {
  static constexpr const char* kName = "bfs";

  struct State {
    std::uint32_t level = kUnreachedLevel;
  };
  struct Update {
    VertexId dst = 0;
    std::uint32_t level = 0;
  };

  VertexId root = 0;

  void init(VertexId v, State& s, bool& active) const {
    s.level = v == root ? 0 : kUnreachedLevel;
    active = v == root;
  }
  bool scatter(const Edge& e, const State& src, Update& out) const {
    out = {e.dst, src.level + 1};
    return true;
  }
  /// The state-free hook (PullCapable): a round-r frontier source has
  /// level exactly r (levels are set once, by the round that claims
  /// them), so the update e.dst would receive is reconstructible from
  /// the round number alone — byte-identical to scatter's.
  bool pull(const Edge& e, std::uint32_t round, Update& out) const {
    out = {e.dst, round + 1};
    return true;
  }
  /// Min-fold over levels: duplicate delivery is a no-op.
  bool gather(const Update& u, State& dst) const {
    if (u.level >= dst.level) return false;
    dst.level = u.level;
    return true;
  }
  /// Within one round every update to a vertex carries the same level,
  /// so any staged champion dominates every later same-dst update.
  bool dominates(const Update& a, const Update& b) const {
    return b.level >= a.level;
  }
  void sieve_merge(Update& champion, const Update& u) const { champion = u; }
};
static_assert(sizeof(BfsProgram::Update) == 8);

static_assert(GraphProgram<BfsProgram>);
static_assert(PullCapable<BfsProgram>);
// Single-query programs carry no frontier masks; only MultiBfs
// (graph/multi_bfs.hpp) models MaskedProgram.
static_assert(!MaskedProgram<BfsProgram>);

}  // namespace fbfs::graph
