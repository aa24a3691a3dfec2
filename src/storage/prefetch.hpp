// Read-ahead streaming: a background thread keeps the next buffer(s) of
// a File in flight while the consumer drains the current one, so a
// sequential scan never stalls on the device (the engines' dominant
// access pattern is exactly this scan — see ISSUE/ROADMAP item 1 and
// the BFS I/O-overlap motivation in arXiv:2503.00430).
//
// The reader is an N-deep ring (num_buffers >= 2; the old
// double-buffering is the N = 2 case). Each fetch cycle gathers every
// currently-free slot — they are always consecutive in ring order — and
// submits them as ONE Device::read_batch: on the modelled backend that
// is an in-order loop of read_at (stats unchanged), on the real backend
// one io_uring submission with up to queue_depth reads in flight.
// Sizing num_buffers to the device's queue depth is what turns the ring
// into genuine parallel I/O.
//
// PrefetchReader is byte-for-byte equivalent to StreamReader on a file
// that is not concurrently appended: same delivered bytes, same
// position() semantics. Every transfer is still charged to the device,
// so per-device IoStats stay exact — the fetcher may read up to
// (num_buffers - 1) buffers past what the consumer ultimately consumes,
// and those transfers are real, charged device operations, exactly like
// a disk's own read-ahead.
//
// Threading: one fetcher thread per reader, one consumer thread assumed
// (the same contract StreamReader has). Slot handoff is mutex+condvar;
// a slot's bytes are only touched by the side that currently owns it
// (fetcher while `full == false`, consumer while `full == true`), with
// the ownership flip always under the mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/device.hpp"
#include "storage/stream.hpp"

namespace fbfs::io {

class PrefetchReader {
 public:
  /// Streams from `offset` with `buffer_bytes` read-ahead granularity;
  /// `num_buffers` (>= 2) is the ring depth — each round of free slots
  /// is submitted as one Device::read_batch.
  PrefetchReader(File& file, std::size_t buffer_bytes,
                 std::uint64_t offset = 0, std::size_t num_buffers = 2);
  ~PrefetchReader();

  PrefetchReader(const PrefetchReader&) = delete;
  PrefetchReader& operator=(const PrefetchReader&) = delete;

  /// Reads up to `bytes`; returns bytes delivered (short only at EOF).
  std::size_t read(void* dst, std::size_t bytes);

  /// Device offset of the next byte this reader will deliver.
  std::uint64_t position() const { return start_offset_ + consumed_; }

 private:
  struct Slot {
    OverwriteBuffer<std::byte> data;
    std::size_t size = 0;  // valid bytes when full
    bool full = false;     // true: consumer owns; false: fetcher owns
  };

  void fetch_loop();

  File* file_;
  const std::uint64_t start_offset_;
  std::uint64_t consumed_ = 0;

  std::vector<Slot> slots_;
  std::size_t head_ = 0;  // consumer's current slot
  std::size_t pos_ = 0;   // consumed within that slot

  std::mutex mutex_;
  std::condition_variable slot_filled_;
  std::condition_variable slot_freed_;
  bool done_ = false;  // fetcher saw EOF; no further slot will fill
  bool stop_ = false;  // destructor shutting the fetcher down

  std::thread fetcher_;
};

/// Typed sequential reader with read-ahead: RecordReader's contract
/// (including the truncated-tail CHECK), PrefetchReader's overlap.
template <typename T>
using PrefetchRecordReader = BasicRecordReader<T, PrefetchReader>;

}  // namespace fbfs::io
