// Reader options and the type-erased sources the codec decodes from.
//
// ReaderOptions sizes every sequential read buffer (config key
// `io.reader_buffer`). ByteSource is the byte stream a codec reader
// decodes: a file on a device (open_stream_reader, a StreamReader that
// owns its File) or a blob already in memory (open_memory_reader).
// RecordSource<T> is what a codec reader hands back, whatever the format
// underneath. The virtual dispatch is per buffer / per batch, invisible
// next to the device time.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "storage/device.hpp"
#include "storage/stream.hpp"

namespace fbfs::io {

struct ReaderOptions {
  std::size_t buffer_bytes = 1 << 20;
};

/// Reads `io.reader_buffer` (byte size) with the default above.
ReaderOptions reader_options_from_config(const Config& config);

/// A sequential byte stream: `read` is short only at end of stream,
/// `position` is the offset of the next byte delivered.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::size_t read(void* dst, std::size_t bytes) = 0;
  virtual std::uint64_t position() const = 0;
};

/// A sequential stream of records: RecordReader's contract (truncated
/// tails included) over any codec format.
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

/// Byte reader over `name` on `device` (must exist); owns the open File.
std::unique_ptr<ByteSource> open_stream_reader(Device& device,
                                               const std::string& name,
                                               const ReaderOptions& opts);
/// Byte reader over `bytes` already in memory: no device, no
/// accounting; the bytes are freed with the reader.
std::unique_ptr<ByteSource> open_memory_reader(std::vector<std::byte> bytes);

}  // namespace fbfs::io
