// The top-down scatter phase of core::run's rounds.
//
// Each round streams the input edges of every partition with an active
// source, builds the update each active-source edge carries, and
// shuffles it in place into the update file of the partition owning the
// target. The pieces, in pipeline order: the update fan-out (P open
// writers on the updates device); the trim sink, which holds the dead
// set and receives a trimming scan's survivors; the state-free update
// source; the sieve's windows; the staging stage with the sieve; and
// the partition scan. A scan is cut into fixed-size units that
// run_ordered (common/parallel.hpp) loads and works on concurrently and
// retires strictly in scan order, so update files and stay survivors
// are byte-identical at every thread count. The sieve keeps one flat
// slot per vertex id in a window the run owns; a scan group borrows one
// for its lifetime and every retire resets just the slots it used, so
// no unit hashes, allocates per update or clears O(n). The bottom-up
// scan in pull.hpp runs on the same stage, fan-out and runner, with the
// sieve off; the passes over vertex state (init, gather, collect) live
// in vertex_state.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/collector.hpp"
#include "storage/codec.hpp"
#include "storage/reader_factory.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::core {

/// Partition p's update file on the updates device (rounds overwrite it
/// in place).
std::string update_file_name(const graph::PartitionedGraph& pg,
                             std::uint32_t p);

namespace detail {

/// P update writers held open across one scatter phase; writer q
/// receives every update addressed into partition q, in source-partition
/// order. Appends come only from a scan's retire step, which run_ordered
/// serialises in scan order, so the writers need no lock. Each writer is
/// a CodecWriter: raw policy streams straight to the file, the other
/// policies pick each partition's cheapest on-disk format at close().
template <typename Update>
struct UpdateFanout {
  std::vector<std::unique_ptr<io::codec::CodecWriter<Update>>> writers;

  void append_batch(std::uint32_t q, std::span<const Update> batch) {
    writers[q]->append_batch(batch);
  }

  struct CloseStats {
    /// Updates a decoder will deliver — the gather-phase view the stop
    /// rule and pending counts key on (the bitmap format collapses
    /// byte-identical duplicates, so this can be below the staged
    /// count; nonzero iff anything was staged either way).
    std::uint64_t updates = 0;
    /// Encoded bytes (headers included) of every partition's stream,
    /// written or kept resident, bucketed by chosen format.
    std::array<std::uint64_t, io::codec::kNumFormats> encoded_bytes{};
  };

  /// Closes all writers and records each partition's pending update
  /// count. In partition order, each staged writer's encoded blob stays
  /// in memory — moved into resident[q], for gather to decode — when it
  /// fits in what is left of `budget`, and is written to its file
  /// otherwise; raw writers have already streamed theirs to the device.
  /// A resident partition's file from an earlier round is removed, so
  /// the update files on the device are always this round's.
  CloseStats close(std::vector<std::uint64_t>& pending_updates,
                   std::uint64_t budget,
                   std::vector<std::vector<std::byte>>& resident) {
    CloseStats out;
    for (std::uint32_t q = 0; q < writers.size(); ++q) {
      const auto count = [&](io::codec::Format format, std::uint64_t records,
                             std::uint64_t bytes) {
        pending_updates[q] = records;
        out.updates += records;
        out.encoded_bytes[static_cast<std::size_t>(format)] += bytes;
      };
      io::codec::CodecWriter<Update>& writer = *writers[q];
      if (writer.streaming()) {
        const auto r = writer.close();
        count(r.format, r.records, r.file_bytes);
        continue;
      }
      io::codec::EncodedBlob blob = writer.encode();
      count(blob.format, blob.records, blob.bytes.size());
      if (blob.bytes.size() <= budget) {
        budget -= blob.bytes.size();
        resident[q] = std::move(blob.bytes);
        writer.remove_file();
      } else {
        writer.write(blob);
      }
    }
    return out;
  }
};

/// Update files always allow the duplicate-collapsing bitmap format:
/// every program's gather is idempotent (graph/program.hpp).
template <typename Update>
UpdateFanout<Update> open_update_fanout(
    const graph::PartitionedGraph& pg, const io::StoragePlan& plan,
    std::size_t write_buffer_bytes,
    io::codec::Policy policy = io::codec::Policy::kRaw) {
  const std::uint32_t num_partitions = pg.layout.num_partitions();
  const std::size_t update_buffer = std::max<std::size_t>(
      sizeof(Update), write_buffer_bytes / num_partitions);
  UpdateFanout<Update> fanout;
  for (std::uint32_t q = 0; q < num_partitions; ++q) {
    io::codec::EncodeOptions opts;
    opts.policy = policy;
    opts.allow_bitmap = true;
    opts.range_begin = pg.layout.begin(q);
    opts.range_end = pg.layout.end(q);
    fanout.writers.push_back(
        std::make_unique<io::codec::CodecWriter<Update>>(
            plan.updates(), update_file_name(pg, q), update_buffer, opts));
  }
  return fanout;
}

/// A top-down scan's view of trimming. `dead` is the engine's dead set
/// (null when the run does not trim): levels are set once, so an edge
/// whose source is in it can never carry a useful update again. When
/// `collecting` (this scan trims), the survivors land in `staged` in
/// scan order; the engine encodes and writes them as the partition's
/// next input once the scan ends.
struct StayTrimSink {
  const AtomicBitmap* dead = nullptr;
  bool collecting = false;
  std::vector<graph::Edge> staged;

  /// Appends a unit's survivors at its retire (and empties them).
  void take(std::vector<graph::Edge>& survivors) {
    staged.insert(staged.end(), survivors.begin(), survivors.end());
    survivors.clear();
  }
};

/// How a top-down scan builds the update an active source's out-edge
/// carries: the program's state-free hook, whose contract makes
/// pull(e, round) / pull_masked(e, round, frontier_mask(src))
/// byte-identical to scatter(e, state) for an active source — so the
/// partition's state file is never loaded.
template <graph::GraphProgram P>
struct RoundScatter {
  const P& program;
  std::uint32_t round = 0;
  /// Masked programs: every vertex's frontier mask (MaskStateTracker).
  std::span<const std::uint64_t> frontier_masks;

  bool operator()(const graph::Edge& e, typename P::Update& out) const {
    if constexpr (graph::MaskedProgram<P>) {
      return program.pull_masked(e, round, frontier_masks[e.src], out);
    } else {
      return program.pull(e, round, out);
    }
  }
};

/// One scatter pass's counters. `emitted` counts updates program.scatter
/// produced; `sieved` counts the ones that never reached the shuffle
/// writers (scatter declined, or the staging sieve collapsed them onto
/// an earlier same-destination update). Records staged = emitted minus
/// the sieve's share of sieved.
struct ScatterResult {
  std::uint64_t scanned = 0;
  std::uint64_t emitted = 0;
  std::uint64_t sieved = 0;
  /// Edges that actually probed program state: a top-down scan probes
  /// every edge it scans (probed == scanned); a bottom-up pull skips
  /// the rest of a vertex's in-edge run once the vertex is claimed, so
  /// probed is the short-circuit's savings made visible.
  std::uint64_t probed = 0;
  /// Edges never READ at all: bottom-up blocks whose whole destination
  /// range was already claimed, outside every read span, are skipped
  /// without touching their bytes (the frontier-density-aware reader;
  /// such blocks inside a span's seek-sized gap are read and count in
  /// `scanned`). scanned + skipped covers the input file.
  std::uint64_t skipped = 0;
  /// Scanned edges whose source is in the trim sink's dead set (0 when
  /// the run cannot trim).
  std::uint64_t dead = 0;
};

/// Adds a finished scan's counters to the live op counters.
inline void add_live_counts(metrics::Collector* collector,
                            const ScatterResult& r) {
  if (collector == nullptr) return;
  collector->live().add_edges_scanned(r.scanned);
  collector->live().add_edges_probed(r.probed);
  collector->live().add_updates(r.emitted, r.sieved);
}

/// The staging sieve's windows for one run; core::run owns them. A
/// window is one slot per vertex id: kNoSlot, or the bucket index of the
/// record its stage holds for that destination in the current unit. A
/// scan group's stage takes a window at load and gives it back after the
/// group's last retire, every slot kNoSlot again. A window is allocated
/// only when every existing one is held, so a run allocates at most one
/// per concurrently live group: the pool's thread count, or one on the
/// serial path. Windows sit outside engine.memory_budget, at 4 B per
/// vertex each.
class SieveWindows {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit SieveWindows(std::uint64_t num_vertices)
      : num_vertices_(num_vertices) {}

  SieveWindows(const SieveWindows&) = delete;
  SieveWindows& operator=(const SieveWindows&) = delete;

  /// A window no live stage holds, every slot kNoSlot.
  std::vector<std::uint32_t> take() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::vector<std::uint32_t> window = std::move(idle_.back());
        idle_.pop_back();
        return window;
      }
      ++allocated_;
      // Room for every window, so give_back never allocates.
      idle_.reserve(allocated_);
    }
    return std::vector<std::uint32_t>(num_vertices_, kNoSlot);
  }

  /// Takes back a window from take(); every slot must be kNoSlot again.
  void give_back(std::vector<std::uint32_t> window) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(window));
  }

  /// Windows allocated so far: the most that stages have held at once.
  std::size_t allocated() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return allocated_;
  }

 private:
  const std::uint64_t num_vertices_;
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint32_t>> idle_;  // guarded by mutex_
  std::size_t allocated_ = 0;                      // guarded by mutex_
};

/// The staging state of one scan group: per-destination-partition update
/// buckets, (when sieving) a window from the run's SieveWindows, the
/// unit's trim survivors, and its counters. A unit is one staging-buffer
/// lifetime — exactly `reader.buffer_bytes / sizeof(Edge)` records in a
/// top-down scan at every thread count — so the sieve sees identical
/// units whatever the schedule and the update files stay byte-identical.
/// Within a unit the first update to a destination claims the slot; a
/// later non-dominated update is folded into the champion IN that slot
/// via program.sieve_merge (file position = first sighting, value = the
/// fold: min-folds replace, mask folds OR), and either way the later
/// record is dropped — exact by the dominates / sieve_merge contract
/// (graph/program.hpp). Every staged record is its destination's first
/// sighting, so resetting the slots of the records a retire empties
/// leaves the window all kNoSlot; the destructor does the same for a
/// unit a throw abandoned, so no dirty window reaches another group.
template <graph::GraphProgram P>
struct ScatterStage {
  using Update = typename P::Update;

  const P& program;
  const graph::PartitionLayout& layout;
  std::vector<std::vector<Update>> buckets;
  std::vector<graph::Edge> survivors;
  ScatterResult counts;

  /// Sieves through a window taken from `windows`; with none, every
  /// update is staged.
  ScatterStage(const P& program, const graph::PartitionLayout& layout,
               SieveWindows* windows)
      : program(program),
        layout(layout),
        buckets(layout.num_partitions()),
        windows_(windows) {
    if (windows_ != nullptr) {
      window_ = windows_->take();
      FB_CHECK_EQ(window_.size(), layout.num_vertices());
    }
  }

  ScatterStage(ScatterStage&&) = default;  // the source keeps no window
  ScatterStage(const ScatterStage&) = delete;
  ScatterStage& operator=(const ScatterStage&) = delete;
  ScatterStage& operator=(ScatterStage&&) = delete;

  ~ScatterStage() {
    if (window_.empty()) return;
    clear_buckets();
    windows_->give_back(std::move(window_));
  }

  void stage(const Update& u) {
    ++counts.emitted;
    // owner() CHECKs u.dst against the vertex count, which bounds the
    // window index too.
    std::vector<Update>& bucket = buckets[layout.owner(u.dst)];
    if (window_.empty()) {
      bucket.push_back(u);
      return;
    }
    std::uint32_t& slot = window_[u.dst];
    if (slot == SieveWindows::kNoSlot) {
      bucket.push_back(u);  // first: a throw here leaves the slot free
      slot = static_cast<std::uint32_t>(bucket.size() - 1);
      return;
    }
    Update& champion = bucket[slot];
    if (!program.dominates(champion, u)) program.sieve_merge(champion, u);
    ++counts.sieved;
  }

  /// Scatters `batch`, a slice of partition `partition`'s input, into
  /// the buckets (each active-source edge's update built by `source`)
  /// and sorts every edge into dead or surviving by `trim`'s dead set.
  /// Every edge's source must lie in the partition's range: a misfiled
  /// edge would scatter from the wrong partition.
  void process(std::span<const graph::Edge> batch, std::uint32_t partition,
               const RoundScatter<P>& source, const AtomicBitmap& active,
               const StayTrimSink& trim) {
    const graph::VertexId begin = layout.begin(partition);
    const graph::VertexId end = layout.end(partition);
    counts.scanned += batch.size();
    counts.probed += batch.size();
    for (const graph::Edge& e : batch) {
      FB_CHECK_MSG(e.src >= begin && e.src < end,
                   "edge source " << e.src << " misfiled into partition "
                                  << partition);
      if (active.test(e.src)) {
        Update u;
        if (source(e, u)) {
          stage(u);
        } else {
          ++counts.sieved;
        }
      }
      if (trim.dead == nullptr) continue;
      if (trim.dead->test(e.src)) {
        ++counts.dead;
      } else if (trim.collecting) {
        survivors.push_back(e);
      }
    }
  }

  /// Retires the unit's updates: appends each destination's bucket to
  /// the fan-out, adds the counters to `total`, and empties the buckets
  /// for the next unit (the caller takes `survivors`). Only a scan's
  /// ordered retire calls it, so every update file receives the units in
  /// scan order.
  void flush(UpdateFanout<Update>& fanout, ScatterResult& total) {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      if (!buckets[q].empty()) fanout.append_batch(q, buckets[q]);
    }
    clear_buckets();
    total.scanned += counts.scanned;
    total.emitted += counts.emitted;
    total.sieved += counts.sieved;
    total.probed += counts.probed;
    total.dead += counts.dead;
    counts = {};
  }

  /// Empties the buckets and frees the window slot of every record in
  /// them, which leaves the window all kNoSlot.
  void clear_buckets() {
    for (std::vector<Update>& bucket : buckets) {
      if (!window_.empty()) {
        for (const Update& u : bucket) window_[u.dst] = SieveWindows::kNoSlot;
      }
      bucket.clear();
    }
  }

 private:
  SieveWindows* windows_;
  std::vector<std::uint32_t> window_;  // empty: the sieve is off
};

/// A unit's place in a file: `records` edges from byte `offset`.
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t records = 0;
};

/// Reads each extent of `file` — the scan's one open File, shared by
/// every worker (reads are positional) — into its own buffer with one
/// positional read, all submitted as one read_batch: a real backend
/// keeps the group in flight together on the file's fd, and the
/// modelled one (an in-order read_at loop) charges each read as the
/// disk would, so a read starting where the scan's previous one ended
/// continues the head instead of seeking.
inline std::vector<io::OverwriteBuffer<graph::Edge>> read_extents(
    io::File& file, std::span<const Extent> extents) {
  std::vector<io::OverwriteBuffer<graph::Edge>> buffers;
  buffers.reserve(extents.size());
  std::vector<io::ReadRequest> requests;
  requests.reserve(extents.size());
  for (std::size_t k = 0; k < extents.size(); ++k) {
    buffers.emplace_back(static_cast<std::size_t>(extents[k].records));
    requests.push_back(
        {&file, extents[k].offset, buffers[k].data(),
         static_cast<std::size_t>(extents[k].records * sizeof(graph::Edge)),
         0});
  }
  file.device().read_batch(requests);
  for (const io::ReadRequest& r : requests) {
    FB_CHECK_MSG(r.got == r.bytes, file.name()
                                       << " ends inside a scan unit at byte "
                                       << r.offset << " ("
                                       << (r.bytes - r.got)
                                       << " bytes short)");
  }
  return buffers;
}

/// One runner group of a scan (see run_ordered): the stage its units
/// share — they run one after another in the group's task — and, for
/// positional scans, each unit's edges as read_extents delivered them.
template <graph::GraphProgram P>
struct ScanGroup {
  ScatterStage<P> stage;
  std::uint64_t first = 0;  // the group's first unit
  std::vector<io::OverwriteBuffer<graph::Edge>> reads;

  /// Unit u's edges as read_extents delivered them.
  std::span<const graph::Edge> read(std::uint64_t u) const {
    const io::OverwriteBuffer<graph::Edge>& buffer = reads[u - first];
    return {buffer.data(), buffer.size()};
  }
};

/// Units a scan of `device` reads per read_batch: a real device keeps
/// queue_depth unit reads in flight per submission; the modelled
/// timeline is serial, so there each unit is its own read and the
/// historical read/flush interleaving (and with it the charge sequence
/// on a shared update device) is untouched.
inline std::uint64_t read_group_units(const io::Device& device) {
  return device.backend_kind() == io::BackendKind::kReal
             ? std::max<std::uint64_t>(1, device.backend_options().queue_depth)
             : 1;
}

/// A top-down scan's input, partition `partition`'s edges: `records`
/// edges of file `name` on `device`, starting at byte `offset` (0 for
/// the headerless partition files, codec::kHeaderBytes for raw stays) —
/// or, with no device, a stay already decoded into `decoded` (an
/// encoded stay has no per-unit byte offsets to read).
struct ScanInput {
  std::uint32_t partition = 0;
  io::Device* device = nullptr;
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t records = 0;
  std::vector<graph::Edge> decoded;
};

/// One partition's scatter: scans `input`, builds the update of every
/// active-source edge through `source`, routes emitted updates into the
/// fan-out — sieving dominated duplicates at the staging buffers, in a
/// window from `windows` (null: no sieve) — and sorts every edge by
/// `trim`'s dead set. With a collector, the retire steps are timed as
/// shuffle-flush latencies and the finished scan feeds the live op
/// counters.
///
/// The scan is cut into units of `reader.buffer_bytes / sizeof(Edge)`
/// records and runs on run_ordered. Serial (no pool): one streaming
/// reader honouring `reader` (including prefetch mode) delivers each
/// unit as one batch, and one stage serves the whole scan. Parallel:
/// the scan opens its input once and every unit is one positional read
/// on that File, grouped per read_batch by read_group_units; each group
/// task stages its own units in its own stage and window. A decoded
/// stay is sliced in memory either way. Every unit retires in scan
/// order, so update files and stay survivors are byte-identical at every
/// thread count.
template <graph::GraphProgram P>
ScatterResult scatter_partition(
    const ExecContext& exec, const ScanInput& input,
    const graph::PartitionLayout& layout, const RoundScatter<P>& source,
    const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, SieveWindows* windows,
    UpdateFanout<typename P::Update>& fanout, StayTrimSink& trim,
    metrics::Collector* collector = nullptr) {
  const std::uint64_t unit_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));
  const std::uint64_t num_units =
      (input.records + unit_records - 1) / unit_records;
  const auto unit_size = [&](std::uint64_t u) {
    return std::min(unit_records, input.records - u * unit_records);
  };

  std::unique_ptr<io::RecordSource<graph::Edge>> stream;
  std::unique_ptr<io::File> file;  // the parallel scan's input
  std::uint64_t group_units = 1;
  if (!exec.parallel()) {
    group_units = num_units;
    if (input.device != nullptr) {
      io::ReaderOptions opts = reader;
      opts.offset = input.offset;
      // Prefetch mode sizes its ring to a real device's queue depth (the
      // fetcher submits all free slots as one ring batch); on the
      // modelled device this keeps the historical double-buffering.
      opts.match_device(*input.device);
      stream = io::open_record_reader<graph::Edge>(*input.device, input.name,
                                                   opts);
    }
  } else if (input.device != nullptr) {
    group_units = read_group_units(*input.device);
    file = input.device->open(input.name);
  }

  using Group = ScanGroup<P>;
  const auto load = [&](std::uint64_t first, std::uint64_t n) {
    Group group{ScatterStage<P>(program, layout, windows), first, {}};
    if (file != nullptr) {
      std::vector<Extent> extents;
      for (std::uint64_t u = first; u < first + n; ++u) {
        extents.push_back(
            {input.offset + u * unit_records * sizeof(graph::Edge),
             unit_size(u)});
      }
      group.reads = read_extents(*file, extents);
    }
    return group;
  };
  const auto work = [&](Group& group, std::uint64_t u) {
    std::span<const graph::Edge> edges;
    if (stream != nullptr) {
      edges = stream->next_batch();
    } else if (file != nullptr) {
      edges = group.read(u);
    } else {
      edges = std::span<const graph::Edge>(input.decoded)
                  .subspan(u * unit_records, unit_size(u));
    }
    group.stage.process(edges, input.partition, source, active, trim);
  };
  ScatterResult total;
  const auto retire = [&](Group& group, std::uint64_t) {
    metrics::ScopedPhase flush_timer(collector, metrics::Phase::kShuffleFlush);
    group.stage.flush(fanout, total);
    trim.take(group.stage.survivors);
  };
  run_ordered(exec, num_units, group_units, load, work, retire);
  if (stream != nullptr) {
    // The stream's end-of-file read. Records past the expected count
    // are counted, so the engine's scanned-vs-expected CHECK catches a
    // stream that runs long as well as one that ends early.
    for (auto rest = stream->next_batch(); !rest.empty();
         rest = stream->next_batch()) {
      total.scanned += rest.size();
    }
  }
  add_live_counts(collector, total);
  return total;
}

}  // namespace detail
}  // namespace fbfs::core
