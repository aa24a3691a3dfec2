// The reader entry points: `io.reader_buffer` sizes the reads, and a
// ByteSource delivers exactly the bytes of its file or blob, with
// position() tracking what it handed out.
#include "storage/reader_factory.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/temp_dir.hpp"

namespace fbfs::io {
namespace {

/// Drains `reader` in 1000-byte reads, checking position() as it goes.
std::vector<std::byte> drain(ByteSource& reader) {
  std::vector<std::byte> got;
  std::byte piece[1000];
  for (std::size_t n = reader.read(piece, sizeof(piece)); n > 0;
       n = reader.read(piece, sizeof(piece))) {
    got.insert(got.end(), piece, piece + n);
    EXPECT_EQ(reader.position(), got.size());
  }
  return got;
}

TEST(ReaderFactory, OptionsFromConfig) {
  const Config cfg = Config::parse_string("io.reader_buffer = 64K\n");
  EXPECT_EQ(reader_options_from_config(cfg).buffer_bytes, 64u * 1024);
  EXPECT_EQ(reader_options_from_config(Config()).buffer_bytes, 1u << 20);
  // The retired reader-mode keys are not read, whatever they hold.
  const Config retired = Config::parse_string(
      "io.reader = turbo\n"
      "io.prefetch_depth = 0\n");
  EXPECT_EQ(reader_options_from_config(retired).buffer_bytes, 1u << 20);
}

TEST(ReaderFactory, ByteSourceMatchesFileContents) {
  TempDir dir("reader_factory");
  Device dev(dir.str(), DeviceModel::unthrottled());
  std::vector<std::byte> payload(10'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 31);
  }
  auto file = dev.open("bytes", /*truncate=*/true);
  file->append(payload.data(), payload.size());

  // A buffer that is no multiple of the read size: refills mid-read.
  EXPECT_EQ(drain(*open_stream_reader(dev, "bytes", {.buffer_bytes = 777})),
            payload);
  EXPECT_EQ(dev.stats().bytes_read(), payload.size());
  EXPECT_EQ(drain(*open_memory_reader(payload)), payload);
}

}  // namespace
}  // namespace fbfs::io
