// bench_e2e — whole-traversal wall time, TEPS and batch throughput, with
// a per-layer ledger.
//
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--quick]
//             [--kind=core|xstream] [--trace=FILE] [--work=DIR] --out=FILE
//
// One process measures one workload. It sets the workload's fixed graph
// up several times (generate -> partition -> transposed view, each
// timed; the median is setup_s), draws the roots from --seed, computes
// the in-memory oracle for every root, warms up for about a second, then
// runs a closed loop — one client, one engine call at a time — for
// --seconds of wall time:
//
//   * Timed pass. No metrics::Collector is attached. Each engine::run /
//     engine::run_batch call is timed from outside and bracketed with
//     Device::stats() snapshots. These calls give the end-to-end
//     metrics: median call time, Graph500 harmonic-mean TEPS and queries
//     per second.
//   * Traced pass (only with --trace). The first few calls run again
//     with a Collector attached; they give the per-layer metrics and a
//     Chrome trace-event file (open it in Perfetto). The per-round
//     scatter/gather spans are laid out in sequence from the RunStats
//     rows, so scatter + gather + unattributed add up to the call's wall
//     time by construction.
//   * Memory pass. One more call gives peak_rss_mib (run_memory_call).
//
// Every traversal and every batched query is memcmp'd against the
// inmem oracle outside the timed region. An io::IoError or a
// divergence counts as a failed operation; the run still finishes,
// reports error_rate, and exits 1.
//
// Devices are modelled with time_scale fixed at 1.0, so
// FASTBFS_TIME_SCALE cannot change the numbers. All roles of a workload
// share one device, as on the paper's single-disk box.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "engine/api.hpp"
#include "engine/batch.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "metrics/collector.hpp"
#include "storage/device.hpp"
#include "storage/storage_plan.hpp"

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using graph::BfsProgram;
using graph::VertexId;
using State = BfsProgram::State;

constexpr std::uint32_t kPartitions = 4;
// setup_s is a median over repeated set-ups: at least kMinSetups, and
// more (up to kMaxSetups) until kSetupBudgetSeconds have been measured,
// so millisecond-scale set-ups are not one noisy sample.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 1.0;
// Untimed calls before the timed pass (at least one, and until this much
// time has passed): the first calls of a process run up to 2x slower
// while allocations and caches settle.
constexpr double kWarmupSeconds = 1.0;
// Each workload's graph is a fixed dataset; --seed draws the roots, as
// Graph500 draws its search keys. Generating the graph from --seed as
// well made R-MAT's BFS depth from the top roots vary between seeds
// (5 vs 6 rounds), and that, not the engine, dominated the spread.
constexpr std::uint64_t kGraphSeed = 1;
constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------ workloads

enum class GraphKind { kRmat, kTwitter, kGrid };

struct Spec {
  GraphKind graph = GraphKind::kRmat;
  std::uint32_t rmat_scale = 0;
  std::uint64_t twitter_vertices = 0;
  std::uint64_t twitter_edges = 0;
  std::uint32_t grid_side = 0;
  io::DeviceModel model = io::DeviceModel::unthrottled();
  std::uint32_t threads = 1;
  std::uint32_t roots = 0;  // distinct single-source roots, or batch width
  std::uint32_t root_pool = 0;  // top out-degree vertices roots come from
  bool batch = false;
  std::uint32_t traced_calls = 1;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// --quick keeps every workload's shape but shrinks the graph and drops
// the device model, so the whole set runs in seconds.
bool make_spec(const std::string& name, bool quick, Spec* spec) {
  Spec s;
  if (name == "rmat-hdd") {
    s.graph = GraphKind::kRmat;
    s.rmat_scale = quick ? 10 : 17;
    s.model = io::DeviceModel::hdd();
    s.threads = 1;
    s.roots = 12;
    s.root_pool = 16;
    s.traced_calls = 2;
  } else if (name == "twitter-mem") {
    // One engine thread: with two, a parallel phase waits on whichever
    // thread a busy host delays, and run medians swung by up to 24%.
    s.graph = GraphKind::kTwitter;
    s.twitter_vertices = quick ? (4ull << 10) : (128ull << 10);
    s.twitter_edges = quick ? (64ull << 10) : (2ull << 20);
    s.model = io::DeviceModel::unthrottled();
    s.threads = 1;
    s.roots = 16;
    s.root_pool = 16;
    s.traced_calls = 8;
  } else if (name == "grid-ssd") {
    s.graph = GraphKind::kGrid;
    s.grid_side = quick ? 24 : 128;
    s.model = io::DeviceModel::ssd();
    s.threads = 1;
    s.roots = 8;
    s.traced_calls = 2;
  } else if (name == "batch-ssd") {
    s.graph = GraphKind::kRmat;
    s.rmat_scale = quick ? 10 : 16;
    s.model = io::DeviceModel::ssd();
    s.threads = 2;
    s.roots = graph::kMaxBatchQueries;
    s.root_pool = 4 * graph::kMaxBatchQueries;
    s.batch = true;
    s.traced_calls = 1;
  } else {
    return false;
  }
  if (quick) s.model = io::DeviceModel::unthrottled();
  // Fixed here, not read from FASTBFS_TIME_SCALE: the benchmark's numbers
  // are defined at the model's real speed.
  s.model.time_scale = 1.0;
  *spec = s;
  return true;
}

std::unique_ptr<graph::ChunkedEdgeSource> make_source(const Spec& spec) {
  switch (spec.graph) {
    case GraphKind::kRmat:
      return std::make_unique<graph::RmatSource>(graph::RmatParams{
          .scale = spec.rmat_scale, .edge_factor = 16, .seed = kGraphSeed});
    case GraphKind::kTwitter:
      return std::make_unique<graph::TwitterLikeSource>(
          graph::TwitterLikeParams{.num_vertices = spec.twitter_vertices,
                                   .num_edges = spec.twitter_edges,
                                   .seed = kGraphSeed});
    case GraphKind::kGrid:
      return std::make_unique<graph::Grid2dSource>(graph::Grid2dParams{
          .width = spec.grid_side, .height = spec.grid_side});
  }
  return nullptr;
}

/// The engine configuration under test. `core` is the full stack: trims
/// gated at 25% dead input (the paper's §II-C3 threshold), codec auto,
/// sieve and direction auto. `xstream` is the untrimmed top-down
/// baseline with raw, unsieved updates.
engine::Options make_options(engine::Kind kind, const Spec& spec) {
  engine::Options o;
  o.num_threads = spec.threads;
  if (kind == engine::Kind::kCore) {
    o.trim = true;
    o.trim_min_dead_fraction = 0.25;
    o.update_codec = io::codec::Policy::kAuto;
    o.stay_codec = io::codec::Policy::kAuto;
    o.sieve_updates = true;
    o.direction = engine::Direction::kAuto;
  }
  return o;
}

// ---------------------------------------------------------------- trace

/// Chrome trace-event spans ("ph":"X"), kept in memory and written once
/// at the end. Times are seconds on the process clock. A disabled trace
/// records nothing, so runs without --trace hold no span memory.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  void span(const std::string& name, int tid, double start_s, double dur_s,
            const std::string& args = "") {
    if (!enabled_) return;
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "{\"name\":\"" << name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << start_s * 1e6 << ",\"dur\":" << dur_s * 1e6;
    if (!args.empty()) os << ",\"args\":{" << args << "}";
    os << "}";
    events_.push_back(os.str());
  }

  /// Writes the spans, then frees them and stops recording (the memory
  /// pass must not count them).
  bool write(const std::string& path) {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    events_ = {};
    enabled_ = false;
    return out.good();
  }

 private:
  bool enabled_;
  std::vector<std::string> events_;
};

constexpr int kTidSetup = 1;
constexpr int kTidTimed = 2;
constexpr int kTidTraced = 3;

// ---------------------------------------------------------------- setup

struct SetupTimes {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double transpose_s = 0.0;
  double total() const { return generate_s + partition_s + transpose_s; }
};

/// One full set-up from an empty directory: the transposed view caches
/// itself on the device, so a second build in place would be a cache hit.
SetupTimes set_up(const Spec& spec, const std::string& dir,
                  const Stopwatch& clock, Trace& trace,
                  graph::PartitionedGraph* pg) {
  std::filesystem::remove_all(dir);
  io::Device device(dir, io::DeviceModel::unthrottled());
  SetupTimes t;
  double start = clock.seconds();
  const auto source = make_source(spec);
  const graph::GraphMeta meta = graph::write_generated(
      device, "g", source->num_vertices(), source->seed(),
      source->undirected(),
      [&](const graph::EdgeSink& sink) { source->generate(sink); });
  t.generate_s = clock.seconds() - start;
  trace.span("setup.generate", kTidSetup, start, t.generate_s);

  start = clock.seconds();
  *pg = graph::partition_edge_list(device, meta, kPartitions);
  t.partition_s = clock.seconds() - start;
  trace.span("setup.partition", kTidSetup, start, t.partition_s);

  start = clock.seconds();
  graph::build_transposed_view(io::StoragePlan::single(device), *pg);
  t.transpose_s = clock.seconds() - start;
  trace.span("setup.transpose", kTidSetup, start, t.transpose_s);
  return t;
}

// --------------------------------------------------------------- oracle

struct Oracle {
  std::vector<VertexId> roots;
  std::vector<std::vector<State>> reference;  // per root, inmem BFS states
  /// Graph500 traversed-edge count per root: input edges whose source
  /// the BFS reached.
  std::vector<std::uint64_t> traversed_edges;
};

/// The run's roots, drawn with Rng(seed). Grid roots sit in the four
/// corner blocks (1/16 of the side, at least 4x4), so every root has
/// near-maximal eccentricity. Other graphs take the highest out-degree
/// vertex first, so the memory call and the first traced calls measure
/// the same query on every seed (peak memory depends on the query), then
/// draw the rest from the next root_pool - 1 vertices by out-degree
/// (ties by smaller id), which all reach the giant component. The draw
/// is a partial Fisher-Yates shuffle, so call order depends on the seed.
std::vector<VertexId> pick_roots(const Spec& spec, std::uint64_t seed,
                                 const graph::Csr& csr) {
  std::vector<VertexId> roots;
  Rng rng(seed);
  if (spec.graph == GraphKind::kGrid) {
    const std::uint64_t side = spec.grid_side;
    const std::uint64_t block = std::max<std::uint64_t>(4, side / 16);
    FB_CHECK_MSG(spec.roots <= 4 * block * block && 2 * block <= side,
                 "grid side " << side << " too small for " << spec.roots
                              << " corner roots");
    while (roots.size() < spec.roots) {
      const std::uint64_t corner = rng.next_below(4);
      std::uint64_t x = rng.next_below(block);
      std::uint64_t y = rng.next_below(block);
      if (corner & 1) x = side - 1 - x;
      if (corner & 2) y = side - 1 - y;
      const auto v = static_cast<VertexId>(y * side + x);
      if (std::find(roots.begin(), roots.end(), v) == roots.end()) {
        roots.push_back(v);
      }
    }
    return roots;
  }
  std::vector<VertexId> pool(csr.num_vertices());
  for (VertexId v = 0; v < pool.size(); ++v) pool[v] = v;
  std::stable_sort(pool.begin(), pool.end(), [&](VertexId a, VertexId b) {
    return csr.out_degree(a) > csr.out_degree(b);
  });
  std::size_t size = 0;
  while (size < std::min<std::size_t>(spec.root_pool, pool.size()) &&
         csr.out_degree(pool[size]) > 0) {
    ++size;
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(spec.roots, size); ++i) {
    if (i > 0) std::swap(pool[i], pool[i + rng.next_below(size - i)]);
    roots.push_back(pool[i]);
  }
  return roots;
}

Oracle make_oracle(const Spec& spec, std::uint64_t seed,
                   const std::string& dir, const graph::GraphMeta& meta) {
  io::Device device(dir, io::DeviceModel::unthrottled());
  const graph::Csr csr = graph::build_csr(device, meta);
  Oracle oracle;
  oracle.roots = pick_roots(spec, seed, csr);
  FB_CHECK_MSG(oracle.roots.size() == spec.roots,
               "graph has only " << oracle.roots.size()
                                 << " vertices with out-edges, need "
                                 << spec.roots);
  for (const VertexId root : oracle.roots) {
    std::vector<State> states =
        inmem::run(csr, BfsProgram{.root = root}).states;
    std::uint64_t traversed = 0;
    for (VertexId v = 0; v < states.size(); ++v) {
      if (states[v].level != graph::kUnreachedLevel) {
        traversed += csr.out_degree(v);
      }
    }
    oracle.reference.push_back(std::move(states));
    oracle.traversed_edges.push_back(traversed);
  }
  return oracle;
}

bool same_states(const std::vector<State>& a, const std::vector<State>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(State)) == 0;
}

// ---------------------------------------------------------------- calls

/// One engine call as the client saw it, plus what the engine reported.
struct Call {
  bool ok = false;
  std::size_t root_index = 0;  // single-source: index into Oracle::roots
  double start_s = 0.0;        // process clock
  double seconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t traversed_edges = 0;
  io::IoStatsSnapshot io;
  std::vector<metrics::IterationStats> rows;  // traced calls only
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint64_t stay_edges_written = 0;
};

template <typename R>
void take_engine_counters(const R& run, bool keep_rows, Call& call) {
  if (keep_rows) {
    call.rows.insert(call.rows.end(), run.per_iteration.begin(),
                     run.per_iteration.end());
  }
  call.trims_started += run.trims_started;
  call.trims_committed += run.trims_committed;
  call.trims_cancelled += run.trims_cancelled;
  call.stay_edges_written += run.stay_edges_written;
}

class Runner {
 public:
  Runner(const Spec& spec, engine::Kind kind, const graph::PartitionedGraph& pg,
         const Oracle& oracle, const std::string& dir, const Stopwatch& clock)
      : spec_(spec),
        kind_(kind),
        pg_(pg),
        oracle_(oracle),
        clock_(clock),
        device_(dir, spec.model),
        plan_(io::StoragePlan::single(device_)),
        options_(make_options(kind, spec)) {}

  /// Runs call number `n` of a pass: single-source calls cycle through
  /// the oracle's roots, batch calls always send the whole root list.
  /// The engine's per-round rows are kept only for traced calls.
  Call run(std::size_t n, metrics::Collector* collector) {
    const bool traced = collector != nullptr;
    Call call;
    call.root_index = spec_.batch ? 0 : n % oracle_.roots.size();
    call.queries = spec_.batch ? oracle_.roots.size() : 1;
    engine::Options options = options_;
    options.collector = collector;
    const io::IoStatsSnapshot before = device_.stats().snapshot();
    call.start_s = clock_.seconds();
    Stopwatch watch;
    try {
      if (spec_.batch) {
        const engine::BatchRunResult result = engine::run_batch(
            kind_, pg_, plan_, oracle_.roots, options);
        call.seconds = watch.seconds();
        call.ok = result.per_query.size() == oracle_.roots.size();
        for (std::size_t q = 0; call.ok && q < oracle_.roots.size(); ++q) {
          call.ok = same_states(result.per_query[q], oracle_.reference[q]);
          call.traversed_edges += oracle_.traversed_edges[q];
        }
        for (const auto& t : result.traversals) {
          take_engine_counters(t, traced, call);
        }
      } else {
        const std::size_t i = call.root_index;
        const engine::RunResult<BfsProgram> result = engine::run(
            kind_, pg_, plan_, BfsProgram{.root = oracle_.roots[i]}, options);
        call.seconds = watch.seconds();
        call.ok = same_states(result.states, oracle_.reference[i]);
        call.traversed_edges = oracle_.traversed_edges[i];
        take_engine_counters(result, traced, call);
      }
      if (!call.ok) {
        std::cerr << "bench_e2e: call " << n << " diverged from inmem\n";
      }
    } catch (const io::IoError& e) {
      call.seconds = watch.seconds();
      std::cerr << "bench_e2e: call " << n << " failed: " << e.what() << "\n";
    }
    call.io = device_.stats().snapshot().delta(before);
    return call;
  }

 private:
  const Spec& spec_;
  engine::Kind kind_;
  const graph::PartitionedGraph& pg_;
  const Oracle& oracle_;
  const Stopwatch& clock_;
  io::Device device_;
  io::StoragePlan plan_;
  engine::Options options_;
};

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

double read_peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// VmHWM over one call (the first root) with glibc's caching of freed
/// memory turned off: the mmap threshold is pinned, which also stops it
/// adapting upwards, and the heap is trimmed first. Large buffers are
/// then mapped when allocated and unmapped when freed, so the peak
/// follows the engine's live memory. With the allocator's defaults,
/// per-call peaks on grid-ssd ranged from 9.4 to 16.4 MiB with what
/// earlier calls had left cached. The pinned threshold makes every later
/// call slower, which is why this pass runs last and is not timed.
Call run_memory_call(Runner& runner, double* peak_mib) {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  malloc_trim(0);
  if (!reset_peak_rss()) {
    std::cerr << "bench_e2e: cannot reset VmHWM; peak_rss_mib covers the "
                 "whole process\n";
  }
  Call call = runner.run(0, nullptr);
  *peak_mib = read_peak_rss_mib();
  return call;
}

// -------------------------------------------------------------- metrics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Metrics : std::vector<Metric> {
  void add(const std::string& name, double value, const std::string& unit) {
    push_back({name, value, unit});
  }
};

Metrics end_to_end(const std::vector<Call>& calls,
                   const std::vector<SetupTimes>& setups, double peak_mib) {
  std::vector<double> call_s;
  double inverse_rate_sum = 0.0;  // sum of seconds / edges
  double total_s = 0.0;
  std::uint64_t queries = 0;
  for (const Call& c : calls) {
    total_s += c.seconds;
    if (!c.ok) continue;
    call_s.push_back(c.seconds);
    inverse_rate_sum += c.seconds / static_cast<double>(c.traversed_edges);
    queries += c.queries;
  }
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());
  Metrics m;
  m.add("bfs_s_p50", median(call_s), "s");
  m.add("mteps",
        call_s.empty()
            ? 0.0
            : static_cast<double>(call_s.size()) / inverse_rate_sum / 1e6,
        "Medges/s");
  m.add("queries_per_s",
        total_s > 0.0 ? static_cast<double>(queries) / total_s : 0.0,
        "queries/s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mib", peak_mib, "MiB");
  return m;
}

/// Per-call means of the traced pass, plus ratios taken over the sums.
Metrics per_layer(const std::vector<Call>& traced,
                  const std::vector<metrics::RunStats>& stats,
                  const std::vector<SetupTimes>& setups,
                  double trace_overhead) {
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Call& c = traced[i];
    const metrics::RunStats& rs = stats[i];
    double scatter_s = 0.0;
    double gather_s = 0.0;
    std::uint64_t scanned = 0, probed = 0, emitted = 0, sieved = 0;
    std::uint64_t skipped_bytes = 0, mask_bits = 0, bottomup = 0;
    std::uint64_t parts_scattered = 0, parts_skipped = 0;
    std::array<std::uint64_t, 3> codec{};
    for (const metrics::IterationStats& r : c.rows) {
      scatter_s += r.scatter_seconds;
      gather_s += r.gather_seconds;
      scanned += r.edges_scanned;
      probed += r.edges_probed;
      emitted += r.updates_emitted;
      sieved += r.updates_sieved;
      skipped_bytes += r.edge_bytes_skipped;
      mask_bits += r.frontier_mask_bits;
      bottomup += r.bottomup ? 1 : 0;
      parts_scattered += r.partitions_scattered;
      parts_skipped += r.partitions_skipped;
      for (std::size_t f = 0; f < codec.size(); ++f) {
        codec[f] += r.update_codec_bytes[f];
      }
    }
    const auto phase_s = [&](metrics::Phase p) {
      return static_cast<double>(rs.phase_total(p).sum()) * 1e-9;
    };
    sum["wall_s"] += c.seconds;
    sum["queries"] += static_cast<double>(c.queries);
    sum["storage.read_mib"] += static_cast<double>(c.io.bytes_read) / kMiB;
    sum["storage.write_mib"] += static_cast<double>(c.io.bytes_written) / kMiB;
    sum["storage.read_ops"] += static_cast<double>(c.io.read_ops);
    sum["storage.write_ops"] += static_cast<double>(c.io.write_ops);
    sum["storage.seeks"] += static_cast<double>(c.io.seeks);
    sum["storage.busy_s"] += c.io.busy_seconds();
    sum["storage.codec_raw_mib"] += static_cast<double>(codec[0]) / kMiB;
    sum["storage.codec_bitmap_mib"] += static_cast<double>(codec[1]) / kMiB;
    sum["storage.codec_varint_mib"] += static_cast<double>(codec[2]) / kMiB;
    sum["xstream.scatter_s"] += scatter_s;
    sum["xstream.gather_s"] += gather_s;
    sum["xstream.shuffle_flush_s"] += phase_s(metrics::Phase::kShuffleFlush);
    sum["xstream.apply_s"] += phase_s(metrics::Phase::kApply);
    sum["xstream.edges_scanned"] += static_cast<double>(scanned);
    sum["xstream.updates_emitted"] += static_cast<double>(emitted);
    sum["updates_sieved"] += static_cast<double>(sieved);
    sum["partitions_scattered"] += static_cast<double>(parts_scattered);
    sum["partitions_skipped"] += static_cast<double>(parts_skipped);
    sum["xstream.unattributed_s"] += c.seconds - scatter_s - gather_s;
    sum["core.iterations"] += static_cast<double>(c.rows.size());
    sum["core.trims_started"] += c.trims_started;
    sum["core.trims_committed"] += c.trims_committed;
    sum["core.trims_cancelled"] += c.trims_cancelled;
    sum["core.trim_resolve_s"] += phase_s(metrics::Phase::kTrimResolve);
    sum["core.stay_edges_written"] += static_cast<double>(c.stay_edges_written);
    sum["core.bottomup_rounds"] += static_cast<double>(bottomup);
    sum["core.edges_probed"] += static_cast<double>(probed);
    sum["core.edge_mib_skipped"] += static_cast<double>(skipped_bytes) / kMiB;
    sum["engine.frontier_mask_bits"] += static_cast<double>(mask_bits);
  }
  const double n = traced.empty() ? 1.0 : static_cast<double>(traced.size());
  const auto mean = [&](const std::string& key) { return sum[key] / n; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<double> gen, part, trans;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    part.push_back(t.partition_s);
    trans.push_back(t.transpose_s);
  }

  Metrics m;
  m.add("graph.generate_s", median(gen), "s");
  m.add("graph.partition_s", median(part), "s");
  m.add("graph.transpose_s", median(trans), "s");
  for (const char* key : {"storage.read_mib", "storage.write_mib"}) {
    m.add(key, mean(key), "MiB");
  }
  for (const char* key :
       {"storage.read_ops", "storage.write_ops", "storage.seeks"}) {
    m.add(key, mean(key), "count");
  }
  m.add("storage.busy_s", mean("storage.busy_s"), "s");
  m.add("storage.busy_frac", ratio(sum["storage.busy_s"], sum["wall_s"]),
        "fraction");
  for (const char* key : {"storage.codec_raw_mib", "storage.codec_bitmap_mib",
                          "storage.codec_varint_mib"}) {
    m.add(key, mean(key), "MiB");
  }
  for (const char* key : {"xstream.scatter_s", "xstream.gather_s",
                          "xstream.shuffle_flush_s", "xstream.apply_s"}) {
    m.add(key, mean(key), "s");
  }
  m.add("xstream.edges_scanned", mean("xstream.edges_scanned"), "count");
  m.add("xstream.edges_per_s",
        ratio(sum["xstream.edges_scanned"], sum["xstream.scatter_s"]),
        "edges/s");
  m.add("xstream.updates_emitted", mean("xstream.updates_emitted"), "count");
  m.add("xstream.sieve_hit_frac",
        ratio(sum["updates_sieved"],
              sum["updates_sieved"] + sum["xstream.updates_emitted"]),
        "fraction");
  m.add("xstream.partitions_skipped_frac",
        ratio(sum["partitions_skipped"],
              sum["partitions_skipped"] + sum["partitions_scattered"]),
        "fraction");
  m.add("xstream.unattributed_s", mean("xstream.unattributed_s"), "s");
  m.add("core.iterations", mean("core.iterations"), "count");
  for (const char* key : {"core.trims_started", "core.trims_committed",
                          "core.trims_cancelled"}) {
    m.add(key, mean(key), "count");
  }
  m.add("core.trim_commit_frac",
        ratio(sum["core.trims_committed"], sum["core.trims_started"]),
        "fraction");
  m.add("core.trim_resolve_s", mean("core.trim_resolve_s"), "s");
  m.add("core.stay_edges_written", mean("core.stay_edges_written"), "count");
  m.add("core.bottomup_rounds", mean("core.bottomup_rounds"), "count");
  m.add("core.edges_probed", mean("core.edges_probed"), "count");
  m.add("core.edge_mib_skipped", mean("core.edge_mib_skipped"), "MiB");
  m.add("engine.read_mib_per_query",
        ratio(sum["storage.read_mib"], sum["queries"]), "MiB");
  m.add("engine.write_mib_per_query",
        ratio(sum["storage.write_mib"], sum["queries"]), "MiB");
  m.add("engine.frontier_mask_bits", mean("engine.frontier_mask_bits"),
        "count");
  m.add("metrics.trace_overhead_frac", trace_overhead, "fraction");
  return m;
}

/// The call's spans: the call itself, one span per counted round laid
/// out back to back from the call's start, scatter then gather inside
/// each, and the remainder (engine set-up, state collection, the final
/// empty round) as one closing span.
void trace_call(Trace& trace, const Call& call, const std::string& label) {
  trace.span(label, kTidTraced, call.start_s, call.seconds,
             "\"ok\":" + std::string(call.ok ? "true" : "false"));
  double t = call.start_s;
  for (const metrics::IterationStats& r : call.rows) {
    trace.span("round " + std::to_string(r.iteration), kTidTraced, t,
               r.seconds,
               std::string("\"bottomup\":") + (r.bottomup ? "true" : "false"));
    trace.span("scatter", kTidTraced, t, r.scatter_seconds);
    trace.span("gather", kTidTraced, t + r.scatter_seconds, r.gather_seconds);
    t += r.seconds;
  }
  const double rest = call.start_s + call.seconds - t;
  if (rest > 0.0) trace.span("unattributed", kTidTraced, t, rest);
}

void write_metrics(std::ostream& os, const std::vector<Metric>& metrics) {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

/// Removes the run's work directory however main exits.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int usage() {
  std::cerr << "usage: bench_e2e --workload=rmat-hdd|twitter-mem|grid-ssd|"
               "batch-ssd --seed=N [--seconds=S] [--quick]\n"
               "                 [--kind=core|xstream] [--trace=FILE] "
               "[--work=DIR] --out=FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  std::string kind_name = "core";
  std::string trace_path;
  std::string work = "bench_e2e-work";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    try {
      if (const char* v = value("--workload=")) {
        workload = v;
      } else if (const char* v = value("--seed=")) {
        seed = std::stoull(v);
      } else if (const char* v = value("--seconds=")) {
        seconds = std::stod(v);
      } else if (arg == "--quick") {
        quick = true;
      } else if (const char* v = value("--kind=")) {
        kind_name = v;
      } else if (const char* v = value("--trace=")) {
        trace_path = v;
      } else if (const char* v = value("--work=")) {
        work = v;
      } else if (const char* v = value("--out=")) {
        out_path = v;
      } else {
        return usage();
      }
    } catch (const std::logic_error&) {  // stoull/stod: not a number
      return usage();
    }
  }
  Spec spec;
  if (out_path.empty() || !make_spec(workload, quick, &spec) ||
      (kind_name != "core" && kind_name != "xstream")) {
    return usage();
  }
  const engine::Kind kind = engine::parse_kind(kind_name);
  init_log_level_from_env();

  const Stopwatch clock;
  Trace trace(!trace_path.empty());
  const WorkDir work_dir{work + "/" + workload + "-" +
                         std::to_string(::getpid())};
  const std::string dir = work_dir.path + "/dev";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto count = [&](const Call& c) {
    attempted += c.queries;
    if (!c.ok) failed += c.queries;
  };

  // ---- set-up, repeated; the last one's files are what the passes use.
  std::vector<SetupTimes> setups;
  graph::PartitionedGraph pg;
  double setup_total = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total < kSetupBudgetSeconds && setups.size() < kMaxSetups)) {
    setups.push_back(set_up(spec, dir, clock, trace, &pg));
    setup_total += setups.back().total();
  }
  const Oracle oracle = make_oracle(spec, seed, dir, pg.meta);

  // ---- warm-up, then the timed pass: a closed loop for `seconds`.
  std::vector<Call> calls;
  {
    Runner runner(spec, kind, pg, oracle, dir, clock);
    const Stopwatch warming;
    std::size_t n = 0;
    do {
      count(runner.run(n++, nullptr));
    } while (warming.seconds() < kWarmupSeconds);
    const Stopwatch pass;
    do {
      calls.push_back(runner.run(calls.size(), nullptr));
      const Call& c = calls.back();
      count(c);
      trace.span(spec.batch ? "batch" : "bfs", kTidTimed, c.start_s,
                 c.seconds,
                 "\"root\":" + std::to_string(oracle.roots[c.root_index]));
    } while (pass.seconds() < seconds);
  }

  // ---- traced pass: the first calls again, with a Collector attached.
  // Its rows, stats and spans are freed before the memory pass.
  Metrics layers;
  if (!trace_path.empty()) {
    std::vector<Call> traced;
    std::vector<metrics::RunStats> traced_stats;
    Runner runner(spec, kind, pg, oracle, dir, clock);
    const std::size_t n =
        std::min<std::size_t>(spec.traced_calls, calls.size());
    for (std::size_t i = 0; i < n; ++i) {
      metrics::Collector collector;
      traced.push_back(runner.run(i, &collector));
      traced_stats.push_back(collector.run_stats());
      const Call& c = traced.back();
      count(c);
      trace_call(trace, c,
                 spec.batch ? std::string("batch")
                            : "bfs root=" +
                                  std::to_string(oracle.roots[c.root_index]));
    }
    // Same roots, traced vs untraced: the median call-time ratio.
    std::vector<double> plain, with_trace;
    for (const Call& c : calls) {
      if (c.ok && c.root_index < traced.size()) plain.push_back(c.seconds);
    }
    for (const Call& c : traced) {
      if (c.ok) with_trace.push_back(c.seconds);
    }
    const double overhead =
        plain.empty() ? 0.0 : median(with_trace) / median(plain) - 1.0;
    layers = per_layer(traced, traced_stats, setups, overhead);
    if (!trace.write(trace_path)) {
      std::cerr << "bench_e2e: cannot write " << trace_path << "\n";
      return 1;
    }
  }

  // ---- memory pass, last (see run_memory_call).
  double peak_mib = 0.0;
  {
    Runner runner(spec, kind, pg, oracle, dir, clock);
    count(run_memory_call(runner, &peak_mib));
  }
  const Metrics e2e = end_to_end(calls, setups, peak_mib);

  std::ofstream out(out_path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"kind\": \"" << kind_name << "\", \"quick\": "
      << (quick ? "true" : "false") << ", \"seconds\": " << seconds
      << ", \"calls\": " << calls.size() << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed
      << ", \"error_rate\": "
      << (attempted ? static_cast<double>(failed) / attempted : 0.0)
      << ",\n \"call_s\": [";
  for (std::size_t i = 0; i < calls.size(); ++i) {
    out << (i ? ", " : "") << calls[i].seconds;
  }
  out << "],\n \"end_to_end\": ";
  write_metrics(out, e2e);
  out << ",\n \"per_layer\": ";
  write_metrics(out, layers);
  out << "}\n";
  out.close();
  if (!out) {
    std::cerr << "bench_e2e: cannot write " << out_path << "\n";
    return 1;
  }

  std::cout << workload << " (" << kind_name << ", seed " << seed << "): "
            << calls.size() << " timed calls, " << failed << "/" << attempted
            << " queries failed\n";
  print_metrics("end to end", e2e);
  if (!layers.empty()) print_metrics("per layer (per call)", layers);
  return failed == 0 ? 0 : 1;
}
