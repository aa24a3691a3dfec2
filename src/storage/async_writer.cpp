#include "storage/async_writer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fbfs::io {

// The producer fills in a stream and hands it to the writer thread
// through the queue; from then on only the writer touches its bytes and
// files. cancel(), wait_complete(), state() and release() may come from
// any thread; `mutex` orders them against the writer's commit claim and
// carries the condvar for terminal states and the writer's
// acknowledgement.
struct AsyncWriter::Stream {
  StreamId id = 0;
  Device* device = nullptr;
  std::string target;
  std::vector<std::byte> bytes;

  mutable std::mutex mutex;
  std::condition_variable terminal_cv;
  // Set (under `mutex`) by the writer thread the instant it starts the
  // commit sequence. From then on cancel() is a no-op: the stream WILL
  // reach completed (or failed), and the reported terminal state always
  // matches what landed on disk. Without this claim a cancel racing the
  // in-flight rename would report `cancelled` for a stream whose commit
  // already replaced the target.
  bool committing = false;
  bool acked = false;  // the writer thread is done with the stream

  std::atomic<StreamState> state{StreamState::active};

  bool active() const {
    return state.load(std::memory_order_acquire) == StreamState::active;
  }
};

// Streams queued at once are bounded by the streams alive, which the
// caller bounds (the engine keeps one per partition), so the queue never
// pushes back on a hand-over.
AsyncWriter::AsyncWriter()
    : work_(std::numeric_limits<std::size_t>::max()),
      writer_([this] { writer_loop(); }) {}

AsyncWriter::~AsyncWriter() {
  // Abandon whatever is still queued or running; staged targets stay
  // untouched.
  std::vector<StreamId> ids;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (const auto& [id, stream] : streams_) ids.push_back(id);
  }
  for (const StreamId id : ids) cancel(id);
  work_.close();
  writer_.join();
}

AsyncWriter::StreamId AsyncWriter::write_staged(Device& device,
                                                const std::string& target,
                                                std::vector<std::byte> bytes) {
  auto stream = std::make_shared<Stream>();
  stream->device = &device;
  stream->target = target;
  stream->bytes = std::move(bytes);
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    stream->id = next_id_++;
    streams_.emplace(stream->id, stream);
  }
  work_.push(stream);
  return stream->id;
}

std::shared_ptr<AsyncWriter::Stream> AsyncWriter::find(StreamId id) const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  const auto it = streams_.find(id);
  FB_CHECK_MSG(it != streams_.end(), "unknown AsyncWriter stream " << id);
  return it->second;
}

void AsyncWriter::cancel(StreamId id) {
  const std::shared_ptr<Stream> stream = find(id);
  std::lock_guard<std::mutex> lock(stream->mutex);
  // Once the writer claimed the commit, the stream turns completed (or
  // failed) on its own; cancelling here would mislabel a commit that
  // may already have renamed the staged file onto its target.
  if (!stream->active() || stream->committing) return;
  stream->state.store(StreamState::cancelled, std::memory_order_release);
  stream->terminal_cv.notify_all();
}

bool AsyncWriter::wait_complete(StreamId id, double timeout_seconds) {
  const std::shared_ptr<Stream> stream = find(id);
  std::unique_lock<std::mutex> lock(stream->mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  stream->terminal_cv.wait_until(lock, deadline,
                                 [&] { return !stream->active(); });
  return stream->state.load(std::memory_order_acquire) ==
         StreamState::completed;
}

AsyncWriter::StreamState AsyncWriter::state(StreamId id) const {
  return find(id)->state.load(std::memory_order_acquire);
}

void AsyncWriter::release(StreamId id) {
  const std::shared_ptr<Stream> stream = find(id);
  cancel(id);
  {
    // The writer's acknowledgement: the .wip is renamed or removed, so
    // nothing of the stream is left in flight once the slot goes.
    std::unique_lock<std::mutex> lock(stream->mutex);
    stream->terminal_cv.wait(lock, [&] { return stream->acked; });
  }
  std::lock_guard<std::mutex> lock(streams_mutex_);
  streams_.erase(id);
}

void AsyncWriter::write_stream(Stream& stream) {
  const std::string wip = stream.target + ".wip";
  StreamState outcome = StreamState::cancelled;
  try {
    if (stream.active()) {
      auto file = stream.device->open(wip, /*truncate=*/true);
      const std::span<const std::byte> bytes(stream.bytes);
      for (std::size_t off = 0; off < bytes.size() && stream.active();
           off += kAppendBytes) {
        file->append(bytes.data() + off,
                     std::min(kAppendBytes, bytes.size() - off));
      }
      bool commit = false;
      {
        // Claim the commit atomically against cancel(): once
        // `committing` is up, the terminal state below is the truth
        // about the target file.
        std::lock_guard<std::mutex> lock(stream.mutex);
        commit = stream.active();
        stream.committing = commit;
      }
      if (commit) {
        file->sync();
        file.reset();  // close before rename
        stream.device->rename(wip, stream.target);
        outcome = StreamState::completed;
      }
    }
  } catch (const IoError& error) {
    FB_LOG_WARN << "stay stream " << stream.id << " to " << stream.target
                << " failed, abandoning it: " << error.what();
    outcome = StreamState::failed;
  }
  stream.bytes = {};
  // Unless committed, drop the staging file. The previous committed
  // `target` version is deliberately never touched here.
  if (outcome != StreamState::completed && stream.device->exists(wip)) {
    stream.device->remove(wip);
  }
  std::lock_guard<std::mutex> lock(stream.mutex);
  StreamState expected = StreamState::active;
  stream.state.compare_exchange_strong(expected, outcome,
                                       std::memory_order_acq_rel);
  stream.acked = true;
  stream.terminal_cv.notify_all();
}

void AsyncWriter::writer_loop() {
  std::shared_ptr<Stream> stream;
  while (work_.pop(stream)) write_stream(*stream);
}

}  // namespace fbfs::io
