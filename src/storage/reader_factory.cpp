#include "storage/reader_factory.hpp"

#include <algorithm>
#include <cstring>

namespace fbfs::io {

namespace {

class FileSource final : public ByteSource {
 public:
  FileSource(std::unique_ptr<File> file, std::size_t buffer_bytes)
      : file_(std::move(file)), reader_(*file_, buffer_bytes) {}

  std::size_t read(void* dst, std::size_t bytes) override {
    return reader_.read(dst, bytes);
  }
  std::uint64_t position() const override { return reader_.position(); }

 private:
  std::unique_ptr<File> file_;
  StreamReader reader_;
};

class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::vector<std::byte> bytes)
      : bytes_(std::move(bytes)) {}

  std::size_t read(void* dst, std::size_t bytes) override {
    const std::size_t take = std::min(bytes, bytes_.size() - pos_);
    if (take > 0) std::memcpy(dst, bytes_.data() + pos_, take);
    pos_ += take;
    return take;
  }
  std::uint64_t position() const override { return pos_; }

 private:
  std::vector<std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

ReaderOptions reader_options_from_config(const Config& config) {
  ReaderOptions opts;
  opts.buffer_bytes = static_cast<std::size_t>(
      config.get_bytes_or("io.reader_buffer", opts.buffer_bytes));
  return opts;
}

std::unique_ptr<ByteSource> open_stream_reader(Device& device,
                                               const std::string& name,
                                               const ReaderOptions& opts) {
  return std::make_unique<FileSource>(device.open(name), opts.buffer_bytes);
}

std::unique_ptr<ByteSource> open_memory_reader(std::vector<std::byte> bytes) {
  return std::make_unique<MemorySource>(std::move(bytes));
}

}  // namespace fbfs::io
