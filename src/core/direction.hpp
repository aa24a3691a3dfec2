// The per-iteration direction cost model (Beamer/Buluç-style
// direction-optimizing traversal as a core engine strategy).
//
// Top-down scatters the frontier's out-edges: the engine reads the
// input edges of every partition with an active source and emits one
// update per live edge — in the dense middle iterations of a
// low-diameter BFS that is most of the graph, per round. Bottom-up
// scans the IN-edges of partitions that still contain unvisited
// vertices and probes the frontier bitmap instead: at most one update
// per unvisited vertex, and a vertex's in-edge run short-circuits once
// claimed. The right mode flips per iteration with the frontier shape,
// so the engine models the bytes each mode would move and picks the
// cheaper one when `core.direction = auto`:
//
//   topdown  = topdown_scan_edges x edge_bytes
//              + frontier_fraction x total_edges x 2 x update_bytes
//   bottomup = bottomup_scan_edges x edge_bytes
//              + unvisited x 2 x update_bytes
//
// The update terms charge each update twice — once written by the
// shuffle, once read back by the gather. The top-down update count is
// an expectation (the frontier's share of all edges); the bottom-up
// one is the hard ceiling the pull loop enforces. Auto flips to
// bottom-up only when topdown > alpha x bottomup AND the frontier
// holds at least beta of all vertices — the growth gate that keeps
// sliver frontiers (high-diameter grids: every round under ~5% of V)
// top-down no matter what the byte model says, mirroring the alpha/
// beta heuristic of the direction-optimizing BFS paper.
//
// Everything here is a pure function of DirectionInputs so the unit
// tests can pin decisions on synthetic frontier schedules without
// running an engine.
#pragma once

#include <cstdint>

#include "engine/types.hpp"

namespace fbfs::core {

/// One round's observable shape, gathered by core::run before the
/// scatter phase.
struct DirectionInputs {
  std::uint64_t num_vertices = 0;
  std::uint64_t total_edges = 0;
  /// Vertices active this round (the frontier about to scatter).
  std::uint64_t frontier = 0;
  /// Vertices never yet visited (not in any past or present frontier).
  std::uint64_t unvisited = 0;
  /// Input edges of the partitions a top-down scatter would scan
  /// (partitions with an active source; trimmed inputs where stays
  /// committed).
  std::uint64_t topdown_scan_edges = 0;
  /// In-edges of the partitions a bottom-up pull would scan
  /// (partitions still containing an unvisited vertex).
  std::uint64_t bottomup_scan_edges = 0;
  std::uint32_t edge_bytes = 0;
  std::uint32_t update_bytes = 0;
  /// Batched (masked) traversals only — zero for single-query runs:
  /// aggregate popcount of the round's frontier masks, and the number
  /// of queries with any frontier bit left. When set, the beta growth
  /// gate reads the MEAN per-query frontier share
  /// (frontier_bits / (num_vertices x active_queries)) instead of the
  /// vertex fraction — 64 sliver wavefronts summed over one batch look
  /// vertex-dense without being dense for any single query, and the
  /// gate exists to catch exactly that sliver shape. The byte terms
  /// keep the vertex fraction: update RECORDS scale with frontier
  /// vertices whatever their masks hold.
  std::uint64_t frontier_bits = 0;
  std::uint32_t active_queries = 0;
};

/// The modelled bytes behind a decision — surfaced into IterationStats
/// so a run records why each round went the way it did.
struct DirectionCosts {
  double topdown_bytes = 0.0;
  double bottomup_bytes = 0.0;
  double frontier_fraction = 0.0;
};

inline DirectionCosts model_direction_costs(const DirectionInputs& in) {
  DirectionCosts costs;
  const double vertex_fraction =
      in.num_vertices == 0 ? 0.0
                           : static_cast<double>(in.frontier) /
                                 static_cast<double>(in.num_vertices);
  // The gate's fraction: per-query mean for masked batches, the plain
  // vertex fraction otherwise (see DirectionInputs::frontier_bits).
  costs.frontier_fraction =
      in.active_queries > 0 && in.num_vertices > 0
          ? static_cast<double>(in.frontier_bits) /
                (static_cast<double>(in.num_vertices) *
                 static_cast<double>(in.active_queries))
          : vertex_fraction;
  const double update_rw = 2.0 * static_cast<double>(in.update_bytes);
  costs.topdown_bytes =
      static_cast<double>(in.topdown_scan_edges) *
          static_cast<double>(in.edge_bytes) +
      vertex_fraction * static_cast<double>(in.total_edges) *
          update_rw;
  costs.bottomup_bytes = static_cast<double>(in.bottomup_scan_edges) *
                             static_cast<double>(in.edge_bytes) +
                         static_cast<double>(in.unvisited) * update_rw;
  return costs;
}

/// The auto strategy's gates, the Beamer-style defaults: flip only when
/// the top-down bytes exceed kDirectionAlpha x the bottom-up bytes and
/// the frontier holds at least kDirectionBeta of all vertices.
inline constexpr double kDirectionAlpha = 1.0;
inline constexpr double kDirectionBeta = 0.1;

/// The per-round decision. Forced modes pass through; auto applies the
/// byte model behind the beta growth gate.
inline engine::Direction decide_direction(engine::Direction configured,
                                          const DirectionInputs& in,
                                          double alpha, double beta,
                                          DirectionCosts* costs_out = nullptr) {
  const DirectionCosts costs = model_direction_costs(in);
  if (costs_out != nullptr) *costs_out = costs;
  if (configured != engine::Direction::kAuto) return configured;
  const bool bottomup = costs.frontier_fraction >= beta &&
                        costs.topdown_bytes > alpha * costs.bottomup_bytes;
  return bottomup ? engine::Direction::kBottomUp
                  : engine::Direction::kTopDown;
}

}  // namespace fbfs::core
