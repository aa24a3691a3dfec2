// The one entry point for opening sequential readers.
//
// The repo has two byte-stream implementations with identical contracts
// — StreamReader (synchronous) and PrefetchReader (background
// read-ahead) — and a typed record view over each. Engine code must not
// care which one it gets: the choice is a *placement/tuning* decision
// (config key `io.reader`), not an algorithmic one. open_stream_reader /
// open_record_reader<T> return type-erased handles (ByteSource /
// RecordSource<T>) so callers never name a concrete reader type; the
// virtual dispatch is per buffer / per batch, invisible next to the
// modelled device time.
//
// Handles opened via the (Device&, name) overloads own the underlying
// File; the (File&) overloads borrow it (the File must outlive the
// handle), which lets many readers stream one open File concurrently.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "storage/device.hpp"
#include "storage/prefetch.hpp"
#include "storage/stream.hpp"

namespace fbfs::io {

enum class ReaderMode {
  kPlain,     // StreamReader: fetch on demand
  kPrefetch,  // PrefetchReader: background read-ahead thread
};

/// Aborts listing the valid names on anything but "plain"/"prefetch".
ReaderMode parse_reader_mode(const std::string& name);
const char* to_string(ReaderMode mode);

struct ReaderOptions {
  ReaderMode mode = ReaderMode::kPlain;
  std::size_t buffer_bytes = 1 << 20;
  std::uint64_t offset = 0;
  /// PrefetchReader ring depth (>= 2). The default keeps the historic
  /// double-buffering — byte accounting of every existing modelled run
  /// is unchanged. Size it to the device's queue depth to keep a real
  /// backend's ring full (see BackendOptions::queue_depth).
  std::size_t prefetch_depth = 2;

  static ReaderOptions plain(std::size_t buffer_bytes = 1 << 20) {
    return {ReaderMode::kPlain, buffer_bytes, 0, 2};
  }
  static ReaderOptions prefetch(std::size_t buffer_bytes = 1 << 20,
                                std::size_t depth = 2) {
    return {ReaderMode::kPrefetch, buffer_bytes, 0, depth};
  }
};

/// Reads `io.reader` (plain | prefetch), `io.reader_buffer` (byte size)
/// and `io.prefetch_depth` (ring depth) with the defaults above.
ReaderOptions reader_options_from_config(const Config& config);

/// Type-erased StreamReader/PrefetchReader: `read` is short only at end
/// of file, `position` is the device offset of the next byte delivered.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::size_t read(void* dst, std::size_t bytes) = 0;
  virtual std::uint64_t position() const = 0;
};

/// Type-erased RecordReader<T>/PrefetchRecordReader<T>: the
/// BasicRecordReader contract (truncated-tail CHECK included).
template <typename T>
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  /// Next record into `out`; false at end of stream.
  virtual bool next(T& out) = 0;
  /// Up to one buffer of records; empty at end of stream. The span is
  /// valid until the next call.
  virtual std::span<const T> next_batch() = 0;
};

namespace detail {

template <typename Reader>
class ByteSourceImpl final : public ByteSource {
 public:
  template <typename... Extra>
  ByteSourceImpl(std::unique_ptr<File> owned, File& file,
                 std::size_t buffer_bytes, std::uint64_t offset,
                 Extra... extra)
      : owned_(std::move(owned)),
        reader_(file, buffer_bytes, offset, extra...) {}

  std::size_t read(void* dst, std::size_t bytes) override {
    return reader_.read(dst, bytes);
  }
  std::uint64_t position() const override { return reader_.position(); }

 private:
  std::unique_ptr<File> owned_;  // null when borrowing the caller's File
  Reader reader_;
};

template <typename T, typename Reader>
class RecordSourceImpl final : public RecordSource<T> {
 public:
  template <typename... Extra>
  RecordSourceImpl(std::unique_ptr<File> owned, File& file,
                   std::size_t buffer_bytes, std::uint64_t offset,
                   Extra... extra)
      : owned_(std::move(owned)),
        reader_(file, buffer_bytes, offset, extra...) {}

  bool next(T& out) override { return reader_.next(out); }
  std::span<const T> next_batch() override { return reader_.next_batch(); }

 private:
  std::unique_ptr<File> owned_;
  BasicRecordReader<T, Reader> reader_;
};

}  // namespace detail

/// Borrowing byte reader over an already-open File.
std::unique_ptr<ByteSource> open_stream_reader(File& file,
                                               const ReaderOptions& opts);
/// Owning byte reader over `name` on `device` (must exist).
std::unique_ptr<ByteSource> open_stream_reader(Device& device,
                                               const std::string& name,
                                               const ReaderOptions& opts);
/// Owning byte reader over `bytes` already in memory: no device, no
/// accounting; the bytes are freed with the reader.
std::unique_ptr<ByteSource> open_memory_reader(std::vector<std::byte> bytes);

/// Borrowing record reader over an already-open File.
template <typename T>
std::unique_ptr<RecordSource<T>> open_record_reader(File& file,
                                                    const ReaderOptions& opts) {
  if (opts.mode == ReaderMode::kPrefetch) {
    return std::make_unique<detail::RecordSourceImpl<T, PrefetchReader>>(
        nullptr, file, opts.buffer_bytes, opts.offset, opts.prefetch_depth);
  }
  return std::make_unique<detail::RecordSourceImpl<T, StreamReader>>(
      nullptr, file, opts.buffer_bytes, opts.offset);
}

/// Owning record reader over `name` on `device` (must exist).
template <typename T>
std::unique_ptr<RecordSource<T>> open_record_reader(Device& device,
                                                    const std::string& name,
                                                    const ReaderOptions& opts) {
  auto file = device.open(name);
  File& ref = *file;
  if (opts.mode == ReaderMode::kPrefetch) {
    return std::make_unique<detail::RecordSourceImpl<T, PrefetchReader>>(
        std::move(file), ref, opts.buffer_bytes, opts.offset,
        opts.prefetch_depth);
  }
  return std::make_unique<detail::RecordSourceImpl<T, StreamReader>>(
      std::move(file), ref, opts.buffer_bytes, opts.offset);
}

}  // namespace fbfs::io
