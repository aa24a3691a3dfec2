// engine::run — the one run entry the benches and tests dispatch
// through. Picks the engine by engine::Kind at runtime; every kind
// consumes the same engine::Options and produces the same
// engine::RunResult<P> (types.hpp), so a caller can sweep kinds in a
// loop instead of hard-coding one namespace per arm.
//
// There are two engines. Kind::kInmem ignores the partitioning and
// builds the reference CSR straight off the plan's edge device — the
// same call every equivalence test makes by hand — so one dispatch
// covers the reference run too. The streaming kinds both run
// core::run: Kind::kXstream is the X-Stream baseline preset (trimming
// off, every round top-down, and no partition block index, so every
// scan reads whole partitions as the paper's X-Stream does), Kind::kCore
// is FastBFS as configured.
#pragma once

#include "core/engine.hpp"
#include "engine/types.hpp"
#include "graph/csr.hpp"
#include "inmem/engine.hpp"

namespace fbfs::engine {

template <graph::GraphProgram P>
RunResult<P> run(Kind kind, const graph::PartitionedGraph& pg,
                 const io::StoragePlan& plan, const P& program,
                 const Options& options = {}) {
  switch (kind) {
    case Kind::kInmem:
      return inmem::run_graph(plan.edges(), pg.meta, program, options);
    case Kind::kXstream: {
      // Every other field passes through as given.
      Options xstream = options;
      xstream.trim = false;
      xstream.direction = Direction::kTopDown;
      const graph::PartitionedGraph unindexed{pg.meta, pg.layout,
                                              pg.edges_per_partition, {}};
      return core::run(unindexed, plan, program, xstream);
    }
    case Kind::kCore:
      return core::run(pg, plan, program, options);
  }
  FB_CHECK_MSG(false, "unreachable engine kind");
  return {};
}

}  // namespace fbfs::engine
