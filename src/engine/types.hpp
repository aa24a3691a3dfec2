// The unified engine surface: one Options struct, one RunResult and
// one config parser for every engine::Kind (inmem / xstream / core).
// An engine reads the fields it understands and ignores the rest
// (inmem reads only max_iterations + collector), and every kind returns
// engine::RunResult<P>, whose trim/direction counters stay default-zero
// for runs that never trim or flip direction.
//
// Config keys, one spelling per value (options_from_config):
//   * `io.reader_buffer` sizes every sequential read.
//   * `engine.write_buffer`, `engine.max_iterations`,
//     `engine.num_threads` (0 = hardware concurrency),
//     `engine.memory_budget` (a byte size; both streaming kinds read it)
//     and `engine.partition_count` (partition_count_from_config).
//   * `updates.codec`, `updates.sieve` and `updates.stay_codec` (the
//     stay codec defaults to the resolved updates.codec).
//   * `core.*`, the FastBFS trim and direction knobs: `core.trim`,
//     `core.trim_start_round`, `core.trim_min_frontier_fraction`,
//     `core.trim_min_dead_fraction`, `core.grace_timeout` and
//     `core.direction`. Kind::kXstream's preset
//     overrides `core.trim` and `core.direction`, so one config drives
//     either streaming arm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "metrics/iteration_stats.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"

namespace fbfs::metrics {
class Collector;
}  // namespace fbfs::metrics

namespace fbfs::engine {

/// The run-entry variants. Benches/tests dispatch on this instead of
/// hard-coding one engine's namespace (engine::run in api.hpp).
enum class Kind {
  kInmem = 0,    // exact in-memory CSR reference
  kXstream = 1,  // X-Stream baseline: core::run, no trim, top-down
  kCore = 2,     // FastBFS: trimming + direction-optimizing strategies
};

const char* to_string(Kind kind);
Kind parse_kind(const std::string& name);

/// Per-iteration traversal mode of the core engine (`core.direction`).
/// kTopDown scatters the frontier's out-edges (the classic loop);
/// kBottomUp scans in-edges of unvisited vertices and probes the
/// frontier, emitting at most one update per unvisited vertex per
/// in-run; kAuto picks per iteration by the modelled byte cost
/// (core/direction.hpp).
enum class Direction {
  kTopDown = 0,
  kBottomUp = 1,
  kAuto = 2,
};

const char* to_string(Direction direction);
Direction parse_direction(const std::string& name);

/// Options for every engine: engines read the fields they understand and
/// ignore the rest, so a bench can fill one Options and hand it to any
/// Kind.
struct Options {
  /// First member so `{.max_iterations = N}` designated initialization
  /// (the equivalence suites' idiom) skips no earlier field.
  std::uint32_t max_iterations = 1'000'000;
  /// Edge, update, and state reads all honour this buffer size.
  io::ReaderOptions reader = {};
  /// Split across the P update writers during scatter; whole for the
  /// state write-back.
  std::size_t write_buffer_bytes = 1 << 20;
  /// Leave state, update and stay files on their devices after the run.
  bool keep_files = false;
  /// On-disk format policy for the per-partition update files
  /// (storage/codec.hpp). Forced formats degrade to raw when a stream is
  /// ineligible, so any policy is safe for any round.
  io::codec::Policy update_codec = io::codec::Policy::kRaw;
  /// Drop dominated same-destination updates at the scatter staging
  /// buffers, before they reach the shuffle writers. Exact by the
  /// programs' dominates / sieve_merge contract (graph/program.hpp).
  bool sieve_updates = false;
  /// Worker threads for the scatter/gather phases. 1 = the serial
  /// engine (no pool); 0 = one per hardware thread. States, outputs,
  /// update files, and stay files are bit-identical at every count
  /// (the scans' ordered retire; see core/scatter.hpp).
  std::uint32_t num_threads = 1;
  /// Bytes of RAM a streaming run may keep resident instead of on its
  /// devices, spent in a fixed order: first the vertex states (all
  /// n × sizeof(State) of them or none), then, round by round and in
  /// partition order, each encoded update blob that fits in what is
  /// left. Raw-policy updates, stays, edges and the transposed view
  /// always stream. 0 = every state and update file is on the device.
  /// The default is about the paper's memory-to-edge-bytes proportion
  /// (4 GB against twitter_rv) applied to a 16 MiB edge set.
  std::uint64_t memory_budget_bytes = 4ull << 20;

  // ---- FastBFS knobs, read by core::run. Kind::kXstream forces trim
  // off and direction top-down; inmem ignores them all.

  /// Master switch for edge trimming.
  bool trim = true;
  /// First round allowed to start a trim (0 = eager).
  std::uint32_t trim_start_round = 0;
  /// Trim only when at least this fraction of all vertices is active
  /// this round.
  double trim_min_frontier_fraction = 0.0;
  /// Trim only when the partition's previous scan saw at least this
  /// fraction of its input edges already dead.
  double trim_min_dead_fraction = 0.0;
  /// Seconds the next scatter of a partition waits for its pending stay
  /// stream before cancelling and falling back to the previous input.
  double grace_timeout_seconds = 5.0;
  /// Format policy for the trimmed stay files (bitmap never applies:
  /// multi-edges keep their multiplicity). Defaults to following the
  /// resolved update codec when read from config.
  io::codec::Policy stay_codec = io::codec::Policy::kRaw;
  /// Traversal mode strategy (see Direction; kAuto's gates are
  /// core/direction.hpp's constants).
  Direction direction = Direction::kTopDown;

  /// Optional observability hook (not owned). Null runs every engine
  /// exactly as before — no allocation, no clock reads, no extra
  /// atomics — and collection never changes results or on-device bytes
  /// either way (see metrics/collector.hpp).
  metrics::Collector* collector = nullptr;
};

/// One result shape for every engine. Counters a run never touches stay
/// default-zero: inmem and untrimmed runs leave the trim block alone,
/// top-down runs leave bottomup_rounds zero.
template <typename P>
struct RunResult {
  std::vector<typename P::State> states;  // all vertices, in id order
  std::uint32_t iterations = 0;           // counted rounds
  std::uint64_t updates_emitted = 0;      // across the whole run
  std::vector<metrics::IterationStats> per_iteration;

  // Trim totals over the whole run (includes streams still pending at
  // the end, which are resolved with the same grace protocol).
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint32_t trims_failed = 0;
  std::uint64_t stay_edges_written = 0;
  /// Everything outside the counted rounds. Trim resolutions that
  /// happened after the last counted round land here, so the
  /// per-iteration rows plus this row always sum to the run totals above
  /// (core::run CHECKs it). Its `io` and device totals hold the call's
  /// I/O that no round's row does — init, the transposed view, the
  /// uncounted final round, the end-of-run settle and the final collect
  /// — so on a plan with dedicated devices the rows plus this row equal
  /// each device's counter deltas over the call.
  metrics::IterationStats epilogue;

  /// Rounds run bottom-up (direction strategy).
  std::uint32_t bottomup_rounds = 0;

  /// Masked programs (graph::MaskedProgram) only: the arrival log, one
  /// program.arrival(v, state) record per vertex activated by init and
  /// by each gather — round by round, id order within a round, so every
  /// engine and thread count produces the same bytes. Empty for every
  /// other program.
  std::vector<typename P::Update> arrivals;
};

/// Reads the keys listed in the header comment; absent keys keep the
/// Options defaults.
Options options_from_config(const Config& config);

/// Reads `engine.partition_count`, or returns `fallback` when it is
/// absent (inmem ignores partitioning).
std::uint32_t partition_count_from_config(const Config& config,
                                          std::uint32_t fallback);

}  // namespace fbfs::engine
