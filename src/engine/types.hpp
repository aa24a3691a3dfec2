// The unified engine surface (PR 8's api_redesign): one Options
// struct, one RunResult, one config parser for all three run-entry
// variants (inmem / xstream / core).
//
// Before this header each engine declared its own options + result
// structs and its own `engine_options_from_config`, drifting a field at
// a time (core's grew trim knobs, xstream's grew the codec keys, inmem
// had neither). Now every engine consumes engine::Options — fields an
// engine does not use are simply ignored (inmem reads only
// max_iterations + collector) — and returns engine::RunResult<P>,
// whose trim/direction counters stay default-zero for the engines that
// never trim or flip direction. The per-engine spellings
// (xstream::EngineOptions, core::RunResult, inmem::RunOptions, ...)
// are `using` aliases, so existing call sites migrate mechanically.
//
// Shared-key precedence — THE one place it is documented:
//   * `engine.num_threads` (0 = hardware concurrency) is shared by the
//     streaming engines; there is no per-engine spelling.
//   * `updates.codec`, `updates.sieve`, `updates.stay_codec` are shared
//     update-stream keys (stay_codec is read by core only and defaults
//     to the resolved updates.codec).
//   * `io.reader` / `io.reader_buffer` configure every record stream.
//   * write_buffer / max_iterations / partition_count resolve as
//     `<engine>.key` > `engine.key` > built-in default: a generic
//     `engine.*` value applies to whichever engine runs, and the
//     engine-specific spelling (`xstream.write_buffer`,
//     `core.partition_count`, ...) wins when both are present.
//   * `core.*` trim and direction knobs belong to core alone and are
//     parsed only for Kind::kCore.
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

/// The three run-entry variants. Benches/tests dispatch on this instead
/// of hard-coding one engine's namespace (engine::run in api.hpp).
enum class Kind {
  kInmem = 0,    // exact in-memory CSR reference
  kXstream = 1,  // streaming scatter/gather baseline
  kCore = 2,     // FastBFS: trimming + direction-optimizing strategies
};

const char* to_string(Kind kind);
Kind parse_kind(const std::string& name);

/// Per-iteration traversal mode of the core engine (`core.direction`).
/// kTopDown scatters the frontier's out-edges (the classic loop);
/// kBottomUp scans in-edges of unvisited vertices and probes the
/// frontier, emitting at most one update per unvisited vertex per
/// in-run; kAuto picks per iteration by the modelled byte cost
/// (core/direction.hpp). Programs without a pull hook
/// (graph::PullCapable) always run top-down whatever the setting.
enum class Direction {
  kTopDown = 0,
  kBottomUp = 1,
  kAuto = 2,
};

const char* to_string(Direction direction);
Direction parse_direction(const std::string& name);

/// Options for every engine. One struct instead of three: engines read
/// the fields they understand and ignore the rest, so a bench can fill
/// one Options and hand it to any Kind.
struct Options {
  /// First member so `{.max_iterations = N}` designated initialization
  /// (the equivalence suites' idiom) skips no earlier field.
  std::uint32_t max_iterations = 1'000'000;
  /// Edge, update, and state streams all honour this mode/buffer.
  io::ReaderOptions reader = {};
  /// Split across the P update writers during scatter; whole for the
  /// state write-back.
  std::size_t write_buffer_bytes = 1 << 20;
  /// Leave state, update (and core's stay) files on their devices
  /// after the run.
  bool keep_files = false;
  /// On-disk format policy for the per-partition update files
  /// (storage/codec.hpp). The duplicate-collapsing bitmap format only
  /// ever applies to idempotent-gather programs; forced formats degrade
  /// to raw when ineligible, so any policy is safe for any program.
  io::codec::Policy update_codec = io::codec::Policy::kRaw;
  /// Drop dominated same-destination updates at the scatter staging
  /// buffers, before they reach the shuffle writers. Exact for
  /// SieveCapable programs (min-fold gathers); ignored for the rest.
  bool sieve_updates = false;
  /// Worker threads for the scatter/gather phases. 1 = the serial
  /// engine (no pool); 0 = one per hardware thread. States, outputs,
  /// update files, and stay files are bit-identical at every count
  /// (chunk-ordered hand-off; see xstream/detail.hpp).
  std::uint32_t num_threads = 1;

  // ---- core-only knobs (ignored by inmem/xstream). --------------------

  /// Master switch for edge trimming (only effective for kTrimmable
  /// programs).
  bool trim = true;
  /// Skip partitions with no active source (xstream always does; here a
  /// knob so the ablation can price it).
  bool selective = true;
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
  /// AsyncWriter pool geometry for the stay streams.
  std::size_t stay_buffer_bytes = 1 << 20;
  std::size_t stay_pool_buffers = 4;
  /// Format policy for the trimmed stay files (bitmap never applies:
  /// multi-edges keep their multiplicity). Defaults to following the
  /// resolved update codec when read from config.
  io::codec::Policy stay_codec = io::codec::Policy::kRaw;
  /// Traversal mode strategy (core only; see Direction).
  Direction direction = Direction::kTopDown;
  /// kAuto picks bottom-up only when the modelled top-down bytes exceed
  /// alpha x the modelled bottom-up bytes...
  double direction_alpha = 1.0;
  /// ...and the frontier holds at least this fraction of all vertices
  /// (the Beamer-style growth gate: sliver frontiers on high-diameter
  /// graphs never flip).
  double direction_beta = 0.1;

  /// Optional observability hook (not owned). Null runs every engine
  /// exactly as before — no allocation, no clock reads, no extra
  /// atomics — and collection never changes results or on-device bytes
  /// either way (see metrics/collector.hpp).
  metrics::Collector* collector = nullptr;
};

/// One result shape for every engine. Counters an engine never touches
/// stay default-zero: inmem/xstream leave the whole trim/direction
/// block alone, core leaves bottomup_rounds zero for top-down runs.
template <typename P>
struct RunResult {
  std::vector<typename P::State> states;  // all vertices, in id order
  std::uint32_t iterations = 0;           // counted rounds
  std::uint64_t updates_emitted = 0;      // across the whole run
  std::vector<metrics::IterationStats> per_iteration;

  // Trim totals over the whole run (core; includes streams still
  // pending at the end, which are resolved with the same grace
  // protocol).
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint32_t trims_failed = 0;
  std::uint64_t stay_edges_written = 0;
  /// End-of-run settle row (core): trim resolutions that happened after
  /// the last counted round land here, so the per-iteration rows plus
  /// this row always sum to the run totals above (core::run CHECKs it).
  metrics::IterationStats epilogue;

  /// Rounds the core engine ran bottom-up (direction strategy).
  std::uint32_t bottomup_rounds = 0;

  /// Masked programs (graph::MaskedProgram) only: the arrival log, one
  /// program.arrival(v, state) record per vertex activated by init and
  /// by each gather — round by round, id order within a round, so every
  /// engine and thread count produces the same bytes. Empty for every
  /// other program.
  std::vector<typename P::Update> arrivals;
};

/// Reads the engine keys for `kind` under the precedence documented in
/// the header comment. Core's trim/direction knobs are parsed only for
/// Kind::kCore; inmem uses only the shared subset it understands.
Options options_from_config(const Config& config, Kind kind);

/// Reads `<kind>.partition_count` > `engine.partition_count` >
/// `fallback` (inmem has no partitions; its kind returns `fallback`).
std::uint32_t partition_count_from_config(const Config& config, Kind kind,
                                          std::uint32_t fallback);

}  // namespace fbfs::engine
