// The exact in-memory reference engine (ROADMAP item 1).
//
// Executes any GraphProgram over a Csr with the same synchronous
// scatter -> gather rounds as the streaming engine, holding every State
// and every Update in memory, and building each update with
// program.scatter over the source's State. It is the ground truth the
// streaming engine (core::run) is validated against: because programs
// keep gather an order-free fold (program.hpp), both engines produce
// bit-identical states even though they scatter edges in different
// orders and core builds BFS updates through the state-free pull
// hooks.
//
// Round semantics (core::run mirrors these exactly — change both or
// neither):
//   * scatter reads the states frozen at the start of the round;
//   * a round that emits no updates ends the run uncounted;
//   * a counted round with no newly-activated vertex ends the run;
//   * the run also ends after options.max_iterations counted rounds;
//   * masked programs log one program.arrival record per vertex that
//     init or a gather activated, in id order (RunResult::arrivals).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/stopwatch.hpp"
#include "engine/types.hpp"
#include "graph/csr.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"

namespace fbfs::inmem {

/// Reads only options.max_iterations and options.collector; the
/// streaming/trim fields are ignored. Null collector keeps the hot
/// loops unchanged — no allocation, no atomics, no per-edge clock
/// reads; the only addition is one per-round stopwatch, matching the
/// streaming engine. There is no storage plan here, so the per-role
/// I/O block of each iteration row stays zero.
template <graph::GraphProgram P>
engine::RunResult<P> run(const graph::Csr& csr, const P& program,
                         const engine::Options& options = {}) {
  using Update = typename P::Update;
  const std::uint64_t n = csr.num_vertices();

  engine::RunResult<P> result;
  result.states.resize(n);
  AtomicBitmap active(n);
  AtomicBitmap next_active(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    bool is_active = false;
    program.init(v, result.states[v], is_active);
    if (is_active) active.set(v);
  }
  // Appends the arrival records of the vertices set in `bits`, in id
  // order (masked programs only).
  const auto log_arrivals = [&]([[maybe_unused]] const AtomicBitmap& bits) {
    if constexpr (graph::MaskedProgram<P>) {
      for (graph::VertexId v = 0; v < n; ++v) {
        if (bits.test(v)) {
          result.arrivals.push_back(program.arrival(v, result.states[v]));
        }
      }
    }
  };
  log_arrivals(active);

  metrics::Collector* const collector = options.collector;
  std::vector<Update> updates;
  while (result.iterations < options.max_iterations) {
    Stopwatch round_clock;
    updates.clear();
    std::uint64_t scanned = 0;
    std::uint64_t sieved = 0;
    {
      metrics::ScopedPhase scatter_timer(collector, metrics::Phase::kScatter);
      for (graph::VertexId v = 0; v < n; ++v) {
        if (!active.test(v)) continue;
        const typename P::State src_state = result.states[v];  // frozen copy
        scanned += csr.out_degree(v);
        for (const graph::VertexId dst : csr.neighbors(v)) {
          Update u;
          if (program.scatter(graph::Edge{v, dst}, src_state, u)) {
            updates.push_back(u);
          } else {
            ++sieved;
          }
        }
      }
    }
    if (collector != nullptr) {
      collector->live().add_edges_scanned(scanned);
      collector->live().add_edges_probed(scanned);
      collector->live().add_updates(updates.size(), sieved);
    }
    if (updates.empty()) break;
    result.updates_emitted += updates.size();

    next_active.reset();
    {
      metrics::ScopedPhase gather_timer(collector, metrics::Phase::kGather);
      for (const Update& u : updates) {
        if (program.gather(u, result.states[u.dst])) next_active.set(u.dst);
      }
    }
    log_arrivals(next_active);
    ++result.iterations;
    std::swap(active, next_active);
    if (collector != nullptr) {
      metrics::IterationStats stats;
      stats.iteration = result.iterations - 1;
      stats.edges_scanned = scanned;
      stats.edges_probed = scanned;
      stats.updates_emitted = updates.size();
      stats.activated = active.count_set();
      stats.seconds = round_clock.seconds();
      collector->end_iteration(stats);
    }
    if (!active.any()) break;
  }
  return result;
}

/// Builds the Csr off `device` (checksum-verified) and runs.
template <graph::GraphProgram P>
engine::RunResult<P> run_graph(io::Device& device,
                               const graph::GraphMeta& meta, const P& program,
                               const engine::Options& options = {}) {
  return run(graph::build_csr(device, meta), program, options);
}

}  // namespace fbfs::inmem
