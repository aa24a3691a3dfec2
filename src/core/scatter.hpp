// The top-down scatter phase of core::run's rounds.
//
// Each round scans the input edges of every partition with an active
// source, builds the update each active-source edge carries, and
// shuffles it in place into the update file of the partition owning the
// target. The pieces, in pipeline order: the update fan-out (P open
// writers on the updates device); the trim sink, which holds the dead
// set and receives a trimming scan's survivors; the state-free update
// source; the sieve's windows; the staging stage with the sieve; the
// read schedule; and the partition scan. A partition file is sorted by
// source and carries a block index, so the schedule reads only the
// blocks that hold an active source (plus the short gaps between them
// that cost less to read than to seek over). A scan is cut into
// fixed-position units that run_ordered (common/parallel.hpp) loads and
// works on concurrently and retires strictly in scan order, so update
// files and stay survivors are byte-identical at every thread count.
// The sieve keeps one flat slot per vertex id in a window the run owns;
// a scan group borrows one for its lifetime and every retire resets
// just the slots it used, so no unit hashes, allocates per update or
// clears O(n). The bottom-up scan in pull.hpp runs on the same schedule,
// stage, fan-out and runner, with the sieve off; the passes over vertex
// state (init, gather, collect) live in vertex_state.hpp.
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
  /// Edges never READ at all: blocks the scan does not need — top-down,
  /// no active source in the block's range; bottom-up, the whole
  /// destination range already claimed — are skipped without touching
  /// their bytes, unless they sit in a gap short enough to read through
  /// (plan_scan), in which case they are read and count in `scanned`.
  /// scanned + skipped covers the input file.
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
/// lifetime — the records a top-down scan reads of one fixed
/// `reader.buffer_bytes / sizeof(Edge)`-record stretch of its file, at
/// every thread count; the blocks it skips stage nothing — so the sieve
/// sees identical units whatever the schedule and the update files stay
/// byte-identical.
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
  /// Every edge's source must lie in [lo, hi), a range inside the
  /// partition's: a misfiled edge would scatter from the wrong
  /// partition, and one outside its block's index entry could sit in a
  /// block a scan skips.
  void process(std::span<const graph::Edge> batch, std::uint32_t partition,
               graph::VertexId lo, std::uint64_t hi,
               const RoundScatter<P>& source, const AtomicBitmap& active,
               const StayTrimSink& trim) {
    counts.scanned += batch.size();
    counts.probed += batch.size();
    for (const graph::Edge& e : batch) {
      FB_CHECK_MSG(e.src >= lo && e.src < hi,
                   "edge source " << e.src << " misfiled into partition "
                                  << partition << " (its block holds sources ["
                                  << lo << ", " << hi << "))");
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

/// The part of one block of a scan's file (graph::kBlockRecords records
/// per block) that falls in one unit: `records` records from record
/// `first` of the file.
struct Piece {
  std::uint64_t block = 0;
  std::uint64_t first = 0;
  std::uint64_t records = 0;
};

/// What a scan reads of a file and how its reads fall into units. Units
/// sit at fixed positions — unit u is records [u * unit_records, ...) —
/// and each reads only the pieces of the blocks the scan keeps. A unit
/// that keeps nothing is left out.
struct ScanSchedule {
  /// Every kept record as pieces, in file order.
  std::vector<Piece> pieces;
  /// Unit k of those that read something holds pieces
  /// [unit_first[k], unit_first[k + 1]); empty when nothing is read.
  std::vector<std::size_t> unit_first;
  /// Records of blocks the scan skips: never read.
  std::uint64_t skipped = 0;

  std::uint64_t num_units() const {
    return unit_first.empty() ? 0 : unit_first.size() - 1;
  }
  std::span<const Piece> unit(std::uint64_t k) const {
    return std::span<const Piece>(pieces).subspan(
        unit_first[k], unit_first[k + 1] - unit_first[k]);
  }
};

/// The read schedule of every file scan, top-down and bottom-up: over a
/// `records`-record file, a block is read when `needed(b)`; a gap of
/// skippable blocks between two needed ones is read through when it is at
/// most `gap_blocks` long (the input device's seek-equivalent bytes:
/// reading it costs no more than seeking over it); no other block is
/// read. Kept blocks are cut at the fixed unit boundaries, every
/// `unit_records` records.
template <typename Needed>
ScanSchedule plan_scan(std::uint64_t records, std::uint64_t unit_records,
                       std::uint64_t gap_blocks, const Needed& needed) {
  constexpr std::uint64_t kBlock = graph::kBlockRecords;
  const std::uint64_t num_blocks = (records + kBlock - 1) / kBlock;
  const auto block_end = [&](std::uint64_t b) {
    return std::min(records, (b + 1) * kBlock);
  };
  ScanSchedule schedule;
  std::uint64_t last_unit = 0;
  const auto keep = [&](std::uint64_t b) {
    for (std::uint64_t first = b * kBlock; first < block_end(b);) {
      const std::uint64_t u = first / unit_records;
      const std::uint64_t end = std::min(block_end(b), (u + 1) * unit_records);
      if (schedule.pieces.empty() || u != last_unit) {
        schedule.unit_first.push_back(schedule.pieces.size());
        last_unit = u;
      }
      schedule.pieces.push_back({b, first, end - first});
      first = end;
    }
  };
  std::uint64_t next = 0;  // first block neither kept nor skipped yet
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    if (!needed(b)) continue;
    // Blocks [next, b) are the skippable gap since the last needed block.
    const bool read_through =
        !schedule.pieces.empty() && b - next <= gap_blocks;
    for (; next < b; ++next) {
      if (read_through) {
        keep(next);
      } else {
        schedule.skipped += block_end(next) - next * kBlock;
      }
    }
    keep(b);
    next = b + 1;
  }
  for (; next < num_blocks; ++next) {
    schedule.skipped += block_end(next) - next * kBlock;
  }
  if (!schedule.pieces.empty()) {
    schedule.unit_first.push_back(schedule.pieces.size());
  }
  return schedule;
}

/// Reads units [first, first + n) of `schedule` from `file`, whose
/// records start at byte `offset`, into one buffer per unit holding its
/// pieces back to back. Pieces that touch in the file share one
/// positional request, and the group's requests go out as one
/// read_batch on the scan's one open File (shared by every worker:
/// reads are positional). A real backend keeps them in flight together;
/// the modelled one (an in-order read_at loop) charges each read as the
/// disk would, so a read starting where the scan's previous one ended
/// continues the head instead of seeking.
inline std::vector<io::OverwriteBuffer<graph::Edge>> read_units(
    io::File& file, std::uint64_t offset, const ScanSchedule& schedule,
    std::uint64_t first, std::uint64_t n) {
  std::vector<io::OverwriteBuffer<graph::Edge>> buffers;
  buffers.reserve(n);
  std::vector<io::ReadRequest> requests;
  for (std::uint64_t k = first; k < first + n; ++k) {
    const std::span<const Piece> pieces = schedule.unit(k);
    std::uint64_t records = 0;
    for (const Piece& piece : pieces) records += piece.records;
    buffers.emplace_back(static_cast<std::size_t>(records));
    graph::Edge* dst = buffers.back().data();
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const auto bytes =
          static_cast<std::size_t>(pieces[i].records * sizeof(graph::Edge));
      if (i > 0 && pieces[i - 1].first + pieces[i - 1].records ==
                       pieces[i].first) {
        requests.back().bytes += bytes;
      } else {
        requests.push_back(
            {&file, offset + pieces[i].first * sizeof(graph::Edge), dst,
             bytes, 0});
      }
      dst += pieces[i].records;
    }
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

/// Opens a scan's input file, CHECKing that it holds exactly `records`
/// edges after `offset` header bytes: a positional scan reads only the
/// bytes its schedule names, so a file that runs long or short would
/// otherwise go unnoticed.
inline std::unique_ptr<io::File> open_scan_file(io::Device& device,
                                                const std::string& name,
                                                std::uint64_t offset,
                                                std::uint64_t records) {
  std::unique_ptr<io::File> file = device.open(name);
  const std::uint64_t want = offset + records * sizeof(graph::Edge);
  FB_CHECK_MSG(file->size() == want,
               name << " holds " << file->size() << " bytes, expected "
                    << want << " (" << records << " edges)");
  return file;
}

/// One runner group of a scan (see run_ordered): the stage its units
/// share — they run one after another in the group's task — and, for
/// file scans, each unit's edges as read_units delivered them.
template <graph::GraphProgram P>
struct ScanGroup {
  ScatterStage<P> stage;
  std::uint64_t first = 0;  // the group's first unit
  std::vector<io::OverwriteBuffer<graph::Edge>> reads;

  /// Unit u's edges as read_units delivered them.
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
/// encoded stay has no per-unit byte offsets to read). `blocks` is the
/// file's source-keyed block index; with none, the scan reads every
/// block.
struct ScanInput {
  std::uint32_t partition = 0;
  io::Device* device = nullptr;
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t records = 0;
  std::vector<graph::Edge> decoded;
  std::span<const graph::EdgeBlock> blocks;
};

/// One partition's scatter: scans `input`, builds the update of every
/// active-source edge through `source`, routes emitted updates into the
/// fan-out — sieving dominated duplicates at the staging buffers, in a
/// window from `windows` (null: no sieve) — and sorts every edge by
/// `trim`'s dead set. With a collector, the retire steps are timed as
/// shuffle-flush latencies and the finished scan feeds the live op
/// counters.
///
/// The scan runs on plan_scan's schedule. With a block index, a block is
/// needed when its source range holds an active source; without one, or
/// when the scan trims (its survivors must all be collected), every
/// block is. A file input is opened once and its size CHECKed; each
/// unit reads its pieces into one buffer with positional requests,
/// grouped per read_batch by read_group_units, at every thread count. A
/// decoded stay is sliced in memory. Units run on run_ordered, each
/// group staging its units in its own stage and window, and retire in
/// scan order. A unit's staged records do not depend on skipping:
/// skipped blocks hold no active source and stage nothing, so update
/// files and stay survivors are byte-identical at every thread count and
/// on every device model, with or without the index. Every scanned
/// edge's source is CHECKed against its block's index entry (or the
/// partition's range, without an index).
template <graph::GraphProgram P>
ScatterResult scatter_partition(
    const ExecContext& exec, const ScanInput& input,
    const graph::PartitionLayout& layout, const RoundScatter<P>& source,
    const AtomicBitmap& active, const P& program,
    const io::ReaderOptions& reader, SieveWindows* windows,
    UpdateFanout<typename P::Update>& fanout, StayTrimSink& trim,
    metrics::Collector* collector = nullptr) {
  constexpr std::uint64_t kBlock = graph::kBlockRecords;
  const graph::VertexId begin = layout.begin(input.partition);
  const graph::VertexId end = layout.end(input.partition);
  const bool indexed = !input.blocks.empty();
  FB_CHECK_MSG(!indexed || input.blocks.size() ==
                               (input.records + kBlock - 1) / kBlock,
               input.name << " block index covers " << input.blocks.size()
                          << " blocks for " << input.records << " records");
  const bool skip = indexed && !trim.collecting;
  const std::uint64_t unit_records = std::max<std::uint64_t>(
      1, reader.buffer_bytes / sizeof(graph::Edge));
  const std::uint64_t gap_blocks =
      input.device == nullptr
          ? 0
          : input.device->model().seek_equivalent_bytes() /
                (kBlock * sizeof(graph::Edge));
  const ScanSchedule schedule =
      plan_scan(input.records, unit_records, gap_blocks, [&](std::uint64_t b) {
        return !skip ||
               active.any_in_range(
                   input.blocks[b].first,
                   static_cast<std::uint64_t>(input.blocks[b].last) + 1);
      });

  std::unique_ptr<io::File> file;
  std::uint64_t group_units = 1;
  if (input.device != nullptr) {
    file = open_scan_file(*input.device, input.name, input.offset,
                          input.records);
    group_units = read_group_units(*input.device);
  }

  using Group = ScanGroup<P>;
  const auto load = [&](std::uint64_t first, std::uint64_t n) {
    Group group{ScatterStage<P>(program, layout, windows), first, {}};
    if (file != nullptr) {
      group.reads = read_units(*file, input.offset, schedule, first, n);
    }
    return group;
  };
  const auto work = [&](Group& group, std::uint64_t k) {
    const graph::Edge* read = file != nullptr ? group.read(k).data() : nullptr;
    for (const Piece& piece : schedule.unit(k)) {
      std::span<const graph::Edge> edges;
      if (file != nullptr) {
        edges = {read, static_cast<std::size_t>(piece.records)};
        read += piece.records;
      } else {
        edges = std::span<const graph::Edge>(input.decoded)
                    .subspan(piece.first, piece.records);
      }
      // The sources the piece may hold: its block's index entry, which
      // must lie in the partition's range, or that range itself.
      graph::VertexId lo = begin;
      std::uint64_t hi = end;
      if (indexed) {
        const graph::EdgeBlock& block = input.blocks[piece.block];
        FB_CHECK_MSG(block.first >= begin && block.first <= block.last &&
                         block.last < end,
                     input.name << " block " << piece.block << " indexes "
                                << "sources [" << block.first << ", "
                                << block.last << "] outside partition "
                                << input.partition);
        lo = block.first;
        hi = static_cast<std::uint64_t>(block.last) + 1;
      }
      group.stage.process(edges, input.partition, lo, hi, source, active,
                          trim);
    }
  };
  ScatterResult total;
  const auto retire = [&](Group& group, std::uint64_t) {
    metrics::ScopedPhase flush_timer(collector, metrics::Phase::kShuffleFlush);
    group.stage.flush(fanout, total);
    trim.take(group.stage.survivors);
  };
  run_ordered(exec, schedule.num_units(), group_units, load, work, retire);
  total.skipped = schedule.skipped;
  add_live_counts(collector, total);
  return total;
}

}  // namespace detail
}  // namespace fbfs::core
