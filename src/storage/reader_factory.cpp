#include "storage/reader_factory.hpp"

#include <cstring>

#include "common/check.hpp"

namespace fbfs::io {

namespace {

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

ReaderMode parse_reader_mode(const std::string& name) {
  if (name == "plain") return ReaderMode::kPlain;
  if (name == "prefetch") return ReaderMode::kPrefetch;
  FB_CHECK_MSG(false, "unknown reader mode '" << name
                                              << "'; valid values: plain, "
                                                 "prefetch");
  return ReaderMode::kPlain;
}

const char* to_string(ReaderMode mode) {
  return mode == ReaderMode::kPrefetch ? "prefetch" : "plain";
}

ReaderOptions reader_options_from_config(const Config& config) {
  ReaderOptions opts;
  opts.mode = parse_reader_mode(
      config.get_enum_or("io.reader", {"plain", "prefetch"}, "plain"));
  opts.buffer_bytes = static_cast<std::size_t>(
      config.get_bytes_or("io.reader_buffer", opts.buffer_bytes));
  opts.prefetch_depth = std::max<std::size_t>(
      2, config.get_u64_or("io.prefetch_depth", opts.prefetch_depth));
  return opts;
}

std::unique_ptr<ByteSource> open_stream_reader(File& file,
                                               const ReaderOptions& opts) {
  if (opts.mode == ReaderMode::kPrefetch) {
    return std::make_unique<detail::ByteSourceImpl<PrefetchReader>>(
        nullptr, file, opts.buffer_bytes, opts.offset, opts.prefetch_depth);
  }
  return std::make_unique<detail::ByteSourceImpl<StreamReader>>(
      nullptr, file, opts.buffer_bytes, opts.offset);
}

std::unique_ptr<ByteSource> open_stream_reader(Device& device,
                                               const std::string& name,
                                               const ReaderOptions& opts) {
  auto file = device.open(name);
  File& ref = *file;
  if (opts.mode == ReaderMode::kPrefetch) {
    return std::make_unique<detail::ByteSourceImpl<PrefetchReader>>(
        std::move(file), ref, opts.buffer_bytes, opts.offset,
        opts.prefetch_depth);
  }
  return std::make_unique<detail::ByteSourceImpl<StreamReader>>(
      std::move(file), ref, opts.buffer_bytes, opts.offset);
}

std::unique_ptr<ByteSource> open_memory_reader(std::vector<std::byte> bytes) {
  return std::make_unique<MemorySource>(std::move(bytes));
}

}  // namespace fbfs::io
