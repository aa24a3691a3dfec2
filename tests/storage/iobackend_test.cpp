// The IoBackend seam (ISSUE 10): the real backend must honor every
// Device contract the modelled backend defines — exact byte/op
// accounting, read_at short only at end of file, identical fault
// injection — across all of its own fallback ladder (O_DIRECT ->
// buffered, io_uring -> synchronous preads). The O_DIRECT-refused path
// is exercised for real on tmpfs (/dev/shm), which genuinely rejects
// direct opens.
#include "storage/device.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "storage/storage_plan.hpp"

namespace fbfs::io {
namespace {

DeviceModel quiet(DeviceModel model) {
  model.time_scale = 0.0;
  return model;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return out;
}

/// Every backend configuration a Device can run in, including each
/// fallback rung of the real backend.
struct BackendCase {
  const char* tag;
  BackendOptions options;
};

const BackendCase kBackendCases[] = {
    {"modelled", {.kind = BackendKind::kModelled}},
    {"real", {.kind = BackendKind::kReal}},
    {"real-no-direct",
     {.kind = BackendKind::kReal, .direct_io = false}},
    {"real-no-uring",
     {.kind = BackendKind::kReal, .use_uring = false}},
    {"real-sync-buffered",
     {.kind = BackendKind::kReal, .direct_io = false, .use_uring = false}},
    {"real-qd1", {.kind = BackendKind::kReal, .queue_depth = 1}},
};

TEST(BackendKindTest, RoundTripsAndRejectsUnknownNames) {
  EXPECT_EQ(backend_kind_from_string(to_string(BackendKind::kModelled)),
            BackendKind::kModelled);
  EXPECT_EQ(backend_kind_from_string(to_string(BackendKind::kReal)),
            BackendKind::kReal);
  EXPECT_THROW(backend_kind_from_string("ramdisk"), IoError);
}

TEST(BackendOptionsTest, ConfigKeysAndPerRoleOverride) {
  const Config config = Config::parse_string(
      "storage.backend = modelled\n"
      "storage.backend.updates = real\n"
      "storage.queue_depth = 16\n"
      "storage.alignment = 512\n"
      "storage.direct_io = false\n");
  const BackendOptions base = backend_options_from_config(config);
  EXPECT_EQ(base.kind, BackendKind::kModelled);
  EXPECT_EQ(base.queue_depth, 16u);
  EXPECT_EQ(base.alignment, 512u);
  EXPECT_FALSE(base.direct_io);
  EXPECT_TRUE(base.use_uring);
  // The per-role override flips only the named role.
  EXPECT_EQ(backend_options_from_config(config, Role::kUpdates).kind,
            BackendKind::kReal);
  EXPECT_EQ(backend_options_from_config(config, Role::kEdges).kind,
            BackendKind::kModelled);
  // Defaults: modelled with the real-backend tuning at its documented
  // defaults.
  const BackendOptions defaults = backend_options_from_config({});
  EXPECT_EQ(defaults.kind, BackendKind::kModelled);
  EXPECT_EQ(defaults.queue_depth, 8u);
  EXPECT_EQ(defaults.alignment, 4096u);
}

TEST(RealBackendTest, RoundTripsWithExactByteAccounting) {
  TempDir dir("iobackend");
  Device dev(dir.str(), quiet(DeviceModel::hdd()),
             {.kind = BackendKind::kReal});
  EXPECT_EQ(dev.backend_kind(), BackendKind::kReal);
  EXPECT_NE(dev.backend_description().find("real("), std::string::npos)
      << dev.backend_description();

  const auto data = pattern(100'000);
  auto f = dev.open("blob", /*truncate=*/true);
  f->append(data.data(), data.size());
  EXPECT_EQ(f->size(), data.size());
  std::vector<std::byte> back(data.size());
  ASSERT_EQ(f->read_at(0, back.data(), back.size()), back.size());
  EXPECT_EQ(back, data);
  f->sync();

  EXPECT_EQ(dev.stats().bytes_written(), data.size());
  EXPECT_EQ(dev.stats().bytes_read(), data.size());
  EXPECT_EQ(dev.stats().write_ops(), 1u);
  EXPECT_EQ(dev.stats().read_ops(), 1u);
  // Measured wall time lands in busy_ns and the latency histograms;
  // the model's prediction still lands in model_busy_ns, so a real run
  // is its own measured-vs-modelled comparison.
  EXPECT_GT(dev.stats().busy_ns(), 0u);
  EXPECT_GT(dev.stats().model_busy_ns(), 0u);
  EXPECT_EQ(dev.read_latency().count(), 1u);
  EXPECT_EQ(dev.write_latency().count(), 1u);
}

// ISSUE 10 satellite: read_at must loop partial reads to the full
// requested span — short results only ever mean end of file. O_DIRECT
// makes this interesting: a direct read stops at the last aligned
// boundary and the unaligned tail must be completed via the buffered
// fd.
TEST(RealBackendTest, ReadAtIsShortOnlyAtEndOfFile) {
  // 2 aligned blocks plus a 1808-byte tail: every boundary case in one
  // file.
  const auto data = pattern(2 * 4096 + 1808, /*seed=*/3);
  for (const BackendCase& bc : kBackendCases) {
    SCOPED_TRACE(bc.tag);
    TempDir dir("iobackend");
    Device dev(dir.str(), quiet(DeviceModel::unthrottled()), bc.options);
    auto f = dev.open("tail", true);
    f->append(data.data(), data.size());

    std::vector<std::byte> back(data.size() + 4096);
    // Full span, unaligned total length.
    ASSERT_EQ(f->read_at(0, back.data(), data.size()), data.size());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
    // Unaligned offset into the tail block.
    ASSERT_EQ(f->read_at(5000, back.data(), 2000), 2000u);
    EXPECT_EQ(std::memcmp(back.data(), data.data() + 5000, 2000), 0);
    // Span crossing end of file: exactly the remaining bytes.
    ASSERT_EQ(f->read_at(4096, back.data(), back.size()),
              data.size() - 4096);
    EXPECT_EQ(std::memcmp(back.data(), data.data() + 4096,
                          data.size() - 4096),
              0);
    // Wholly past end of file: zero, and never charged.
    const std::uint64_t read_ops = dev.stats().read_ops();
    EXPECT_EQ(f->read_at(data.size() + 10, back.data(), 100), 0u);
    EXPECT_EQ(dev.stats().read_ops(), read_ops);
    // Last byte alone.
    ASSERT_EQ(f->read_at(data.size() - 1, back.data(), 100), 1u);
    EXPECT_EQ(back[0], data.back());
  }
}

TEST(RealBackendTest, ReadBatchMatchesIndividualReads) {
  const auto data = pattern(256 * 1024 + 777, /*seed=*/9);
  for (const BackendCase& bc : kBackendCases) {
    SCOPED_TRACE(bc.tag);
    TempDir dir("iobackend");
    Device dev(dir.str(), quiet(DeviceModel::unthrottled()), bc.options);
    auto f = dev.open("batched", true);
    f->append(data.data(), data.size());

    // Aligned, unaligned, EOF-crossing, and past-EOF requests in one
    // submission.
    std::vector<std::vector<std::byte>> dst;
    dst.emplace_back(64 * 1024);
    dst.emplace_back(10'000);
    dst.emplace_back(8192);
    dst.emplace_back(4096);
    std::vector<ReadRequest> reqs = {
        {f.get(), 0, dst[0].data(), dst[0].size(), 0},
        {f.get(), 123'457, dst[1].data(), dst[1].size(), 0},
        {f.get(), data.size() - 1000, dst[2].data(), dst[2].size(), 0},
        {f.get(), data.size() + 4096, dst[3].data(), dst[3].size(), 0},
    };
    dev.read_batch(reqs);
    EXPECT_EQ(reqs[0].got, dst[0].size());
    EXPECT_EQ(std::memcmp(dst[0].data(), data.data(), reqs[0].got), 0);
    EXPECT_EQ(reqs[1].got, dst[1].size());
    EXPECT_EQ(std::memcmp(dst[1].data(), data.data() + 123'457, reqs[1].got),
              0);
    EXPECT_EQ(reqs[2].got, 1000u);
    EXPECT_EQ(std::memcmp(dst[2].data(), data.data() + data.size() - 1000,
                          1000),
              0);
    EXPECT_EQ(reqs[3].got, 0u);

    // Bytes accounted match exactly the bytes delivered.
    EXPECT_EQ(dev.stats().bytes_read(),
              reqs[0].got + reqs[1].got + reqs[2].got);

    // An empty batch is a no-op.
    std::vector<ReadRequest> none;
    dev.read_batch(none);
  }
}

TEST(RealBackendTest, DirectRefusedFallsBackToBuffered) {
  namespace fs = std::filesystem;
  const fs::path shm = "/dev/shm";
  if (!fs::exists(shm)) GTEST_SKIP() << "/dev/shm not available";
  const fs::path root =
      shm / ("fbfs_iobackend_" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } cleanup{root};

  Device dev(root.string(), quiet(DeviceModel::unthrottled()),
             {.kind = BackendKind::kReal});
  if (dev.backend_description().find("buffered") == std::string::npos) {
    GTEST_SKIP() << "filesystem unexpectedly accepts O_DIRECT: "
                 << dev.backend_description();
  }
  // The buffered fallback still satisfies every read/write contract.
  const auto data = pattern(50'000, /*seed=*/5);
  auto f = dev.open("shm_blob", true);
  f->append(data.data(), data.size());
  std::vector<std::byte> back(data.size());
  ASSERT_EQ(f->read_at(0, back.data(), back.size()), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(dev.stats().bytes_read(), data.size());
  EXPECT_EQ(dev.stats().bytes_written(), data.size());
}

// Fault consumption lives in File, above the backend seam, so injected
// write faults behave identically whichever backend is underneath.
TEST(RealBackendTest, InjectedWriteFaultsBehaveLikeModelled) {
  const auto data = pattern(100);
  for (const BackendCase& bc : kBackendCases) {
    SCOPED_TRACE(bc.tag);
    TempDir dir("iobackend");
    Device dev(dir.str(), quiet(DeviceModel::unthrottled()), bc.options);
    auto f = dev.open("faulty", true);

    dev.inject_write_faults(2);
    EXPECT_THROW(f->append(data.data(), data.size()), IoError);
    EXPECT_THROW(f->write_at(0, data.data(), data.size()), IoError);
    EXPECT_EQ(dev.pending_write_faults(), 0u);
    EXPECT_EQ(dev.stats().bytes_written(), 0u);
    EXPECT_EQ(f->size(), 0u);

    f->append(data.data(), data.size());
    EXPECT_EQ(dev.stats().bytes_written(), data.size());
    EXPECT_EQ(f->size(), data.size());
  }
}

// Read faults are consumed above the backend seam too: one per
// read_at, one per read_batch request, and a faulted batch transfers
// nothing.
TEST(RealBackendTest, InjectedReadFaultsBehaveLikeModelled) {
  const auto data = pattern(100);
  for (const BackendCase& bc : kBackendCases) {
    SCOPED_TRACE(bc.tag);
    TempDir dir("iobackend");
    Device dev(dir.str(), quiet(DeviceModel::unthrottled()), bc.options);
    auto f = dev.open("faulty", true);
    f->append(data.data(), data.size());

    std::vector<std::byte> back(data.size());
    std::vector<ReadRequest> batch = {
        {f.get(), 0, back.data(), 50, 0},
        {f.get(), 50, back.data() + 50, 50, 0}};
    dev.inject_read_faults(2);
    EXPECT_THROW(f->read_at(0, back.data(), back.size()), IoError);
    EXPECT_THROW(dev.read_batch(batch), IoError);
    EXPECT_EQ(dev.pending_read_faults(), 0u);
    EXPECT_EQ(dev.stats().bytes_read(), 0u);

    dev.read_batch(batch);
    EXPECT_EQ(batch[0].got + batch[1].got, data.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(dev.stats().bytes_read(), data.size());
  }
}

}  // namespace
}  // namespace fbfs::io
