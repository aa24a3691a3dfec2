// Device / DeviceModel / IoStats contracts (DESIGN invariant 5 rests on
// exact byte accounting; the ISSUE's throttle-model checklist lives
// here).
#include "storage/device.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "storage/stream.hpp"

namespace fbfs::io {
namespace {

DeviceModel quiet(DeviceModel model) {
  model.time_scale = 0.0;  // accounting only, no sleeping
  return model;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return out;
}

TEST(DeviceModel, FactoriesMatchTheDesignTable) {
  const DeviceModel hdd = DeviceModel::hdd();
  EXPECT_EQ(hdd.name, "hdd");
  EXPECT_DOUBLE_EQ(hdd.read_mb_s, 110.0);
  EXPECT_DOUBLE_EQ(hdd.write_mb_s, 105.0);
  EXPECT_EQ(hdd.seek_ns, 8'000'000u);
  EXPECT_TRUE(hdd.throttled());
  // 8 ms at 110 MB/s: the gap the bottom-up reader reads through.
  EXPECT_EQ(hdd.seek_equivalent_bytes(), 880'000u);

  const DeviceModel ssd = DeviceModel::ssd();
  EXPECT_DOUBLE_EQ(ssd.read_mb_s, 250.0);
  EXPECT_DOUBLE_EQ(ssd.write_mb_s, 200.0);
  EXPECT_EQ(ssd.seek_ns, 60'000u);
  EXPECT_EQ(ssd.seek_equivalent_bytes(), 15'000u);

  const DeviceModel open = DeviceModel::unthrottled();
  EXPECT_FALSE(open.throttled());
  EXPECT_EQ(open.read_service_ns(1 << 20, true), 0u);
  EXPECT_EQ(open.seek_equivalent_bytes(), 0u);

  // A seek cost with no read bandwidth prices no gap either.
  DeviceModel seek_only;
  seek_only.seek_ns = 8'000'000;
  EXPECT_EQ(seek_only.seek_equivalent_bytes(), 0u);
}

TEST(DeviceModel, ServiceTimeIsMonotoneInBytesAndSeekAddsLatency) {
  const DeviceModel hdd = DeviceModel::hdd();
  std::uint64_t prev = 0;
  for (std::uint64_t bytes : {0ull, 1ull, 512ull, 4096ull, 1ull << 20,
                              16ull << 20}) {
    const std::uint64_t ns = hdd.read_service_ns(bytes, false);
    EXPECT_GE(ns, prev) << bytes;
    EXPECT_EQ(hdd.read_service_ns(bytes, true), ns + hdd.seek_ns);
    prev = ns;
  }
  // 1 MB at 110 MB/s ≈ 9.09 ms; writes are slower at 105 MB/s.
  EXPECT_NEAR(static_cast<double>(hdd.read_service_ns(1'000'000, false)),
              1e9 / 110.0, 1e4);
  EXPECT_GT(hdd.write_service_ns(1'000'000, false),
            hdd.read_service_ns(1'000'000, false));
}

TEST(Device, ByteCountersAreExactForAKnownSequence) {
  TempDir dir("dev");
  Device dev(dir.str() + "/disk", quiet(DeviceModel::hdd()));

  const auto data = pattern(10'000);
  {
    auto f = dev.open("edges", /*truncate=*/true);
    StreamWriter writer(*f, 1024);
    writer.append(data);
    writer.flush();
    EXPECT_EQ(writer.bytes_appended(), data.size());
  }
  EXPECT_EQ(dev.stats().bytes_written(), data.size());
  // The append dwarfs the 1024-byte buffer, so it bypasses staging and
  // hits the device as a single large write.
  EXPECT_EQ(dev.stats().write_ops(), 1u);
  EXPECT_EQ(dev.stats().bytes_read(), 0u);

  {
    auto f = dev.open("edges");
    StreamReader reader(*f, 4096);
    std::vector<std::byte> back(data.size());
    EXPECT_EQ(reader.read(back.data(), back.size()), back.size());
    EXPECT_EQ(back, data);
    // EOF probe transfers nothing and must not be accounted.
    std::byte extra;
    EXPECT_EQ(reader.read(&extra, 1), 0u);
  }
  EXPECT_EQ(dev.stats().bytes_read(), data.size());
  EXPECT_EQ(dev.stats().read_ops(), 3u);  // 4096 + 4096 + 1808
  EXPECT_EQ(dev.stats().bytes_written(), data.size());  // unchanged
}

TEST(Device, UnthrottledCountsTheSameBytesAsThrottled) {
  TempDir dir("dev");
  const auto data = pattern(50'000);
  for (const DeviceModel& model :
       {quiet(DeviceModel::hdd()), quiet(DeviceModel::ssd()),
        quiet(DeviceModel::unthrottled())}) {
    Device dev(dir.str() + "/" + model.name, model);
    auto f = dev.open("blob", true);
    f->append(data.data(), data.size());
    std::vector<std::byte> back(data.size());
    EXPECT_EQ(f->read_at(0, back.data(), back.size()), back.size());
    EXPECT_EQ(dev.stats().bytes_written(), data.size()) << model.name;
    EXPECT_EQ(dev.stats().bytes_read(), data.size()) << model.name;
  }
}

TEST(Device, SeeksAreChargedOnNonSequentialAccessOnly) {
  TempDir dir("dev");
  Device dev(dir.str(), quiet(DeviceModel::hdd()));
  auto f = dev.open("seeky", true);
  const auto chunk = pattern(1000);

  f->append(chunk.data(), chunk.size());  // first op on the device: seek
  EXPECT_EQ(dev.stats().seeks(), 1u);
  f->append(chunk.data(), chunk.size());  // sequential continuation
  f->append(chunk.data(), chunk.size());
  EXPECT_EQ(dev.stats().seeks(), 1u);

  std::vector<std::byte> buf(1000);
  f->read_at(0, buf.data(), buf.size());  // head jumps back: seek
  EXPECT_EQ(dev.stats().seeks(), 2u);
  f->read_at(1000, buf.data(), buf.size());  // continues the read
  EXPECT_EQ(dev.stats().seeks(), 2u);
  f->read_at(0, buf.data(), buf.size());  // jumps again
  EXPECT_EQ(dev.stats().seeks(), 3u);

  auto g = dev.open("other", true);
  g->append(chunk.data(), chunk.size());  // different file: seek
  EXPECT_EQ(dev.stats().seeks(), 4u);

  // model_busy_ns is deterministic at time_scale 0: busy wall time stays
  // zero while the modelled service time is exactly reproducible.
  EXPECT_EQ(dev.stats().busy_ns(), 0u);
  const DeviceModel& m = dev.model();
  const std::uint64_t expected =
      m.write_service_ns(1000, true) + 2 * m.write_service_ns(1000, false) +
      m.read_service_ns(1000, true) + m.read_service_ns(1000, false) +
      m.read_service_ns(1000, true) + m.write_service_ns(1000, true);
  EXPECT_EQ(dev.stats().model_busy_ns(), expected);
}

TEST(Device, TwoDevicesAccountIndependently) {
  TempDir dir("dev");
  Device a(dir.str() + "/a", quiet(DeviceModel::hdd()));
  Device b(dir.str() + "/b", quiet(DeviceModel::hdd()));

  const auto data = pattern(100'000);
  auto fa = a.open("x", true);
  fa->append(data.data(), data.size());

  EXPECT_GT(a.stats().model_busy_ns(), 0u);
  EXPECT_EQ(a.stats().bytes_written(), data.size());
  // Load on A leaves B untouched in every counter.
  EXPECT_EQ(b.stats().model_busy_ns(), 0u);
  EXPECT_EQ(b.stats().bytes_written(), 0u);
  EXPECT_EQ(b.stats().seeks(), 0u);

  // And B's busy time under its own load equals its solo service time,
  // independent of A's concurrent traffic.
  auto fb = b.open("y", true);
  std::thread load_a([&] {
    for (int i = 0; i < 20; ++i) fa->append(data.data(), data.size());
  });
  fb->append(data.data(), data.size());
  load_a.join();
  EXPECT_EQ(b.stats().model_busy_ns(),
            b.model().write_service_ns(data.size(), true));
}

TEST(Device, ThrottledWritesActuallyTakeModelledTime) {
  TempDir dir("dev");
  DeviceModel slow;
  slow.name = "slow";
  slow.write_mb_s = 10.0;  // 100 ms per MB
  slow.time_scale = 1.0;
  Device dev(dir.str(), slow);

  const auto data = pattern(1'000'000);
  auto f = dev.open("x", true);
  fbfs::Stopwatch sw;
  f->append(data.data(), data.size());
  // Modelled 100 ms; only assert a generous lower bound to stay robust
  // on loaded CI machines.
  EXPECT_GE(sw.seconds(), 0.08);
  EXPECT_NEAR(static_cast<double>(dev.stats().busy_ns()), 1e8, 2e7);
}

TEST(Device, TimeScaleEnvKnobIsPickedUpByFactories) {
  ::setenv("FASTBFS_TIME_SCALE", "0", 1);
  const DeviceModel hdd = DeviceModel::hdd();
  EXPECT_DOUBLE_EQ(hdd.time_scale, 0.0);

  ::setenv("FASTBFS_TIME_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(DeviceModel::ssd().time_scale, 0.25);

  ::setenv("FASTBFS_TIME_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(DeviceModel::hdd().time_scale, 1.0);

  ::unsetenv("FASTBFS_TIME_SCALE");
  EXPECT_DOUBLE_EQ(DeviceModel::hdd().time_scale, 1.0);

  // Scale 0 on a throttled model: exact accounting, no wall-clock cost.
  TempDir dir("dev");
  ::setenv("FASTBFS_TIME_SCALE", "0", 1);
  Device dev(dir.str(), DeviceModel::hdd());
  ::unsetenv("FASTBFS_TIME_SCALE");
  const auto data = pattern(4'000'000);
  auto f = dev.open("x", true);
  fbfs::Stopwatch sw;
  f->append(data.data(), data.size());
  EXPECT_LT(sw.seconds(), 1.0);  // modelled would be ~38 ms + seek, x1
  EXPECT_EQ(dev.stats().bytes_written(), data.size());
  EXPECT_EQ(dev.stats().busy_ns(), 0u);
  EXPECT_GT(dev.stats().model_busy_ns(), 0u);
}

TEST(Device, FileManagementHelpers) {
  TempDir dir("dev");
  Device dev(dir.str(), quiet(DeviceModel::unthrottled()));
  EXPECT_FALSE(dev.exists("a"));
  {
    auto f = dev.open("a", true);
    const auto data = pattern(123);
    f->append(data.data(), data.size());
    EXPECT_EQ(f->size(), 123u);
  }
  EXPECT_TRUE(dev.exists("a"));
  EXPECT_EQ(dev.file_size("a"), 123u);

  dev.rename("a", "b");
  EXPECT_FALSE(dev.exists("a"));
  EXPECT_TRUE(dev.exists("b"));

  { auto f = dev.open("c", true); }
  const auto files = dev.list_files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "b");
  EXPECT_EQ(files[1], "c");

  dev.remove("c");
  EXPECT_FALSE(dev.exists("c"));
  EXPECT_THROW(dev.open("missing"), IoError);
}

TEST(Device, InjectedWriteFaultsThrowAndDrain) {
  TempDir dir("dev");
  Device dev(dir.str(), quiet(DeviceModel::unthrottled()));
  auto f = dev.open("x", true);
  const auto data = pattern(100);

  dev.inject_write_faults(2);
  EXPECT_EQ(dev.pending_write_faults(), 2u);
  EXPECT_THROW(f->append(data.data(), data.size()), IoError);
  EXPECT_THROW(f->write_at(0, data.data(), data.size()), IoError);
  EXPECT_EQ(dev.pending_write_faults(), 0u);

  // Faults consumed: writes work again, and the failed ops counted no
  // bytes.
  EXPECT_EQ(dev.stats().bytes_written(), 0u);
  f->append(data.data(), data.size());
  EXPECT_EQ(dev.stats().bytes_written(), data.size());
  EXPECT_EQ(f->size(), data.size());

  // Reads are never faulted.
  dev.inject_write_faults(1);
  std::vector<std::byte> back(100);
  EXPECT_EQ(f->read_at(0, back.data(), back.size()), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(dev.pending_write_faults(), 1u);

  // inject_write_faults(0) clears pending faults.
  dev.inject_write_faults(0);
  EXPECT_EQ(dev.pending_write_faults(), 0u);
  f->append(data.data(), data.size());
  EXPECT_EQ(f->size(), 2 * data.size());
}

}  // namespace
}  // namespace fbfs::io
