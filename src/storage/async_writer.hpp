// AsyncWriter: the paper's dedicated stay-file writer thread (§II-C2).
//
// The engine encodes a trim's survivors when the scan ends and hands
// the encoded stay over whole; one background thread writes it while the
// scan moves on. Stream life cycle and the contracts the engine leans
// on (DESIGN invariant 6):
//
//  * write_staged(dev, target, bytes) — takes the bytes and returns at
//    once. The writer thread appends them to "<target>.wip" on `dev` in
//    kAppendBytes pieces, checking for cancellation between appends,
//    then fdatasyncs and renames the .wip onto `target`, state ->
//    completed. Cancellation or a write fault removes the .wip and
//    NEVER touches the previous `target` — which is exactly why a
//    cancelled trim can fall back to the old stay file (paper: "the
//    previous input file is reused").
//  * cancel(id)             — cooperative: the writer stops at its next
//    append boundary (or never starts the stream). Never blocks on the
//    device.
//  * wait_complete(id, s)   — bounded wait (the engine's grace timeout);
//    true iff the stream committed.
//  * release(id)            — frees the slot; auto-cancels if active and
//    waits until the writer thread is done with the stream's files.
//
// Streams are written one at a time, in hand-over order. A device
// error (IoError) fails only the stream it hit: the writer thread
// survives and the streams queued behind it complete normally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.hpp"
#include "storage/device.hpp"

namespace fbfs::io {

class AsyncWriter {
 public:
  using StreamId = std::uint64_t;

  enum class StreamState {
    active,     // queued or being written, not yet committed
    completed,  // durable and committed; staged target renamed in place
    cancelled,  // abandoned by request; staged target untouched
    failed,     // abandoned by a device error; target untouched
  };

  /// Bytes per device append.
  static constexpr std::size_t kAppendBytes = std::size_t{1} << 20;

  AsyncWriter();
  ~AsyncWriter();

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Queues `bytes` for `target + ".wip"` on `device`, committed by
  /// atomic rename onto `target`. The previous `target` version (if any)
  /// survives cancellation and faults untouched.
  StreamId write_staged(Device& device, const std::string& target,
                        std::vector<std::byte> bytes);

  /// Requests cancellation. No-op on a terminal stream, and no-op once
  /// the writer thread has started committing: the stream then still
  /// turns completed/failed, never cancelled, so the terminal state
  /// always tells the truth about the target file.
  void cancel(StreamId id);

  /// Waits up to `timeout_seconds` for a terminal state; true iff the
  /// stream committed (completed).
  bool wait_complete(StreamId id, double timeout_seconds);

  StreamState state(StreamId id) const;

  /// Forgets the stream. Auto-cancels it if it is not yet terminal and
  /// waits for the writer thread to be done with it.
  void release(StreamId id);

 private:
  struct Stream;

  void writer_loop();
  void write_stream(Stream& stream);
  std::shared_ptr<Stream> find(StreamId id) const;

  mutable std::mutex streams_mutex_;
  std::unordered_map<StreamId, std::shared_ptr<Stream>> streams_;
  StreamId next_id_ = 1;

  MpscQueue<std::shared_ptr<Stream>> work_;
  std::thread writer_;
};

}  // namespace fbfs::io
