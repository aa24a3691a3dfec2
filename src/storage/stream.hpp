// Buffered sequential streams over Device files.
//
// StreamWriter / StreamReader move raw bytes through a private buffer so
// the device sees few, large, sequential transfers (the access pattern
// every engine in this repo is built around). RecordWriter<T> /
// RecordReader<T> are the typed views the engines actually use: an edge
// or update file is a flat array of trivially-copyable records.
//
// Readers keep a private cursor over positional reads, so any number of
// readers can stream one File concurrently.
#pragma once

#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "storage/device.hpp"

namespace fbfs::io {

/// `size` trivially copyable elements allocated for overwrite: unlike
/// std::vector<T>(size), nothing is initialised, so the pages of a
/// large stream buffer that a short stream never fills never become
/// resident. Every user fills elements by byte copies before reading
/// them (malloc'd storage implicitly holds the T objects).
template <typename T>
class OverwriteBuffer {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  OverwriteBuffer() = default;
  explicit OverwriteBuffer(std::size_t size)
      : data_(static_cast<T*>(std::malloc(size * sizeof(T)))), size_(size) {
    FB_CHECK_MSG(data_ != nullptr || size == 0,
                 "allocating a " << size * sizeof(T) << "-byte buffer failed");
  }

  T* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) const { return data_.get()[i]; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> data_;
  std::size_t size_ = 0;
};

class StreamWriter {
 public:
  /// Buffers up to `buffer_bytes` before each device append.
  StreamWriter(File& file, std::size_t buffer_bytes)
      : file_(&file), buffer_(buffer_bytes == 0 ? 1 : buffer_bytes) {}

  ~StreamWriter() {
    // Callers should flush() (it can throw); last-chance best effort.
    if (fill_ > 0) {
      try {
        flush();
      } catch (const IoError&) {
      }
    }
  }

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  void append(std::span<const std::byte> data) {
    append_raw(data.data(), data.size());
  }

  void append_raw(const void* src, std::size_t bytes) {
    const auto* in = static_cast<const std::byte*>(src);
    // Writes at least one buffer large bypass staging entirely: flush the
    // buffered prefix, then hand the payload to the device as one
    // transfer instead of memcpy-ing it through the buffer a piece at a
    // time. Byte stream and ordering are unchanged; only the copy and
    // the operation count shrink.
    if (bytes >= buffer_.size()) {
      flush();
      file_->append(in, bytes);
      logical_bytes_ += bytes;
      return;
    }
    while (bytes > 0) {
      const std::size_t room = buffer_.size() - fill_;
      const std::size_t take = bytes < room ? bytes : room;
      std::memcpy(buffer_.data() + fill_, in, take);
      fill_ += take;
      in += take;
      bytes -= take;
      if (fill_ == buffer_.size()) flush();
    }
  }

  /// Pushes buffered bytes to the device.
  void flush() {
    if (fill_ == 0) return;
    file_->append(buffer_.data(), fill_);
    logical_bytes_ += fill_;
    fill_ = 0;
  }

  /// Total bytes accepted, flushed or not.
  std::uint64_t bytes_appended() const { return logical_bytes_ + fill_; }

 private:
  File* file_;
  OverwriteBuffer<std::byte> buffer_;
  std::size_t fill_ = 0;
  std::uint64_t logical_bytes_ = 0;
};

class StreamReader {
 public:
  /// Streams from `offset` with `buffer_bytes` read-ahead granularity.
  StreamReader(File& file, std::size_t buffer_bytes, std::uint64_t offset = 0)
      : file_(&file),
        buffer_(buffer_bytes == 0 ? 1 : buffer_bytes),
        offset_(offset) {}

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Reads up to `bytes`; returns bytes delivered (short only at EOF).
  std::size_t read(void* dst, std::size_t bytes) {
    auto* out = static_cast<std::byte*>(dst);
    std::size_t total = 0;
    while (total < bytes) {
      if (pos_ == avail_) {
        avail_ = file_->read_at(offset_, buffer_.data(), buffer_.size());
        offset_ += avail_;
        pos_ = 0;
        if (avail_ == 0) break;  // end of file
      }
      const std::size_t have = avail_ - pos_;
      const std::size_t want = bytes - total;
      const std::size_t take = want < have ? want : have;
      std::memcpy(out + total, buffer_.data() + pos_, take);
      pos_ += take;
      total += take;
    }
    return total;
  }

  /// Device offset of the next byte this reader will deliver.
  std::uint64_t position() const { return offset_ - (avail_ - pos_); }

 private:
  File* file_;
  OverwriteBuffer<std::byte> buffer_;
  std::uint64_t offset_;       // next device offset to fetch
  std::size_t pos_ = 0;        // consumed within buffer_
  std::size_t avail_ = 0;      // valid bytes in buffer_
};

/// Typed append stream of trivially-copyable records.
template <typename T>
class RecordWriter {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  RecordWriter(File& file, std::size_t buffer_bytes)
      : bytes_(file, buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes) {}

  void append(const T& record) { bytes_.append_raw(&record, sizeof(T)); }

  void append_batch(std::span<const T> records) {
    bytes_.append_raw(records.data(), records.size() * sizeof(T));
  }
  void append_batch(const std::vector<T>& records) {
    append_batch(std::span<const T>(records));
  }

  void flush() { bytes_.flush(); }

  std::uint64_t records_appended() const {
    return bytes_.bytes_appended() / sizeof(T);
  }

 private:
  StreamWriter bytes_;
};

/// Typed sequential reader of trivially-copyable records. The file
/// length past the start offset must be a whole number of records: a
/// truncated trailing record is a CHECK failure at EOF, never silently
/// dropped.
template <typename T>
class RecordReader {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  explicit RecordReader(File& file, std::size_t buffer_bytes,
                        std::uint64_t offset = 0)
      : bytes_(file, buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes,
               offset),
        batch_((buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes) /
               sizeof(T)) {
    FB_CHECK_MSG(offset % sizeof(T) == 0,
                 "record stream offset not record-aligned: " << offset);
  }

  /// Next record into `out`; false at end of stream.
  bool next(T& out) {
    if (cursor_ == loaded_) {
      load();
      if (loaded_ == 0) return false;
    }
    out = batch_[cursor_++];
    return true;
  }

  /// A view of up to one buffer of records; empty at end of stream. The
  /// span is valid until the next call. Records already delivered by
  /// next() are not repeated: a partially-consumed buffer yields its
  /// remainder first.
  std::span<const T> next_batch() {
    if (cursor_ == loaded_) load();
    const std::span<const T> out(batch_.data() + cursor_, loaded_ - cursor_);
    cursor_ = loaded_;
    return out;
  }

 private:
  void load() {
    const std::size_t got =
        bytes_.read(batch_.data(), batch_.size() * sizeof(T));
    // The byte stream returns short only at EOF, so a non-multiple here
    // is a partial trailing record: surface the data loss instead of
    // rounding it away.
    FB_CHECK_MSG(got % sizeof(T) == 0,
                 "record stream ends mid-record: "
                     << got % sizeof(T) << " stray tail bytes after "
                     << records_delivered_ + got / sizeof(T)
                     << " whole records of size " << sizeof(T));
    loaded_ = got / sizeof(T);
    cursor_ = 0;
    records_delivered_ += loaded_;
  }

  StreamReader bytes_;
  OverwriteBuffer<T> batch_;
  std::size_t cursor_ = 0;
  std::size_t loaded_ = 0;
  std::uint64_t records_delivered_ = 0;
};

}  // namespace fbfs::io
