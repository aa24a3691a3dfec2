// AsyncWriter acceptance tests for DESIGN invariant 6:
//  * a completed write is durable and byte-identical to the handed-over
//    blob, written in one device append per started kAppendBytes;
//  * the hand-over never waits for the device;
//  * cancellation stops the writer at its next append boundary and
//    leaves the previous version of the target file intact and readable;
//  * an injected device write failure fails the affected stream without
//    killing the writer thread or the streams queued behind it.
#include "storage/async_writer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "common/units.hpp"
#include "storage/stream.hpp"

namespace fbfs::io {
namespace {

std::vector<std::byte> make_payload(std::size_t bytes, std::uint64_t seed) {
  fbfs::Rng rng(seed);
  std::vector<std::byte> payload(bytes);
  for (auto& b : payload) b = static_cast<std::byte>(rng.next_below(256));
  return payload;
}

std::vector<std::byte> read_all(Device& dev, const std::string& name) {
  auto f = dev.open(name);
  std::vector<std::byte> data(f->size());
  StreamReader reader(*f, 1 << 16);
  const std::size_t got = reader.read(data.data(), data.size());
  EXPECT_EQ(got, data.size());
  return data;
}

void write_file(Device& dev, const std::string& name,
                std::span<const std::byte> data) {
  auto f = dev.open(name, true);
  f->append(data.data(), data.size());
  f->sync();
}

Device make_device(const TempDir& dir) {
  return Device(dir.str(), DeviceModel::unthrottled());
}

/// A modelled disk writing at `write_mb_s` whose first write to a fresh
/// file also pays `seek_ms`: slow enough that a test thread acts while
/// the writer is still on the device.
Device make_slow_device(const TempDir& dir, double write_mb_s,
                        double seek_ms = 0.0) {
  DeviceModel slow;
  slow.name = "slow";
  slow.write_mb_s = write_mb_s;
  slow.seek_ns = static_cast<std::uint64_t>(seek_ms * 1e6);
  slow.time_scale = 1.0;
  return Device(dir.str(), slow);
}

TEST(AsyncWriter, MultiAppendBlobCommitsByteIdentical) {
  // One device append per started kAppendBytes, whatever the blob's
  // size, and the committed file is the blob.
  TempDir dir("aw");
  Device dev = make_device(dir);
  AsyncWriter writer;
  constexpr std::size_t kPiece = AsyncWriter::kAppendBytes;
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{100'003}, kPiece, 2 * kPiece + 12'345}) {
    SCOPED_TRACE("blob of " + std::to_string(bytes) + " bytes");
    const std::vector<std::byte> payload = make_payload(bytes, bytes + 42);
    const std::uint64_t ops_before = dev.stats().write_ops();
    const auto id = writer.write_staged(dev, "stay.bin", payload);
    ASSERT_TRUE(writer.wait_complete(id, 60.0));
    EXPECT_EQ(writer.state(id), AsyncWriter::StreamState::completed);
    writer.release(id);

    EXPECT_EQ(dev.stats().write_ops() - ops_before,
              (bytes + kPiece - 1) / kPiece);
    EXPECT_FALSE(dev.exists("stay.bin.wip"));
    EXPECT_EQ(read_all(dev, "stay.bin"), payload);
  }
}

TEST(AsyncWriter, HandOverReturnsBeforeTheDeviceTakesTheBlob) {
  // The scan thread never waits for the stay device: an 8-append blob
  // on a ~50 ms-per-append disk is handed over while the device holds
  // at most the piece the writer started on.
  TempDir dir("aw");
  Device dev = make_slow_device(dir, 20.0);
  AsyncWriter writer;
  const std::vector<std::byte> big =
      make_payload(8 * AsyncWriter::kAppendBytes, 6);
  const auto id = writer.write_staged(dev, "stay.bin", big);
  EXPECT_LT(dev.stats().bytes_written(), big.size());
  ASSERT_TRUE(writer.wait_complete(id, 60.0));
  writer.release(id);
  EXPECT_EQ(read_all(dev, "stay.bin"), big);
}

TEST(AsyncWriter, CancellationLeavesThePreviousFileIntact) {
  // A cancel issued mid-blob settles after at most the one append the
  // writer had started, and the previous target stays untouched.
  TempDir dir("aw");
  Device dev = make_slow_device(dir, 20.0);
  const std::vector<std::byte> previous = make_payload(50'000, 7);
  write_file(dev, "stay.bin", previous);

  AsyncWriter writer;
  const std::vector<std::byte> replacement =
      make_payload(8 * AsyncWriter::kAppendBytes, 8);
  const std::uint64_t ops_before = dev.stats().write_ops();
  const auto id = writer.write_staged(dev, "stay.bin", replacement);
  while (dev.stats().write_ops() < ops_before + 2) {
    std::this_thread::yield();
  }
  writer.cancel(id);
  const std::uint64_t ops_at_cancel = dev.stats().write_ops();
  EXPECT_EQ(writer.state(id), AsyncWriter::StreamState::cancelled);
  EXPECT_FALSE(writer.wait_complete(id, 60.0));
  writer.release(id);
  EXPECT_LE(dev.stats().write_ops(), ops_at_cancel + 1);

  // The previous version is untouched and readable; the .wip is gone.
  EXPECT_EQ(read_all(dev, "stay.bin"), previous);
  EXPECT_FALSE(dev.exists("stay.bin.wip"));
}

TEST(AsyncWriter, WriteFaultAutoCancelsOnlyTheAffectedStream) {
  TempDir dir1("aw1");
  TempDir dir2("aw2");
  Device bad = make_device(dir1);
  Device good = make_device(dir2);
  const std::vector<std::byte> old_stay = make_payload(10'000, 3);
  write_file(bad, "stay.bin", old_stay);
  bad.inject_write_faults(100);  // the disk "dies"

  // The healthy stream is queued behind the doomed one.
  AsyncWriter writer;
  const std::vector<std::byte> payload =
      make_payload(AsyncWriter::kAppendBytes + 20'000, 4);
  const auto doomed = writer.write_staged(bad, "stay.bin", payload);
  const auto healthy = writer.write_staged(good, "out.bin", payload);

  EXPECT_FALSE(writer.wait_complete(doomed, 60.0));
  EXPECT_EQ(writer.state(doomed), AsyncWriter::StreamState::failed);
  ASSERT_TRUE(writer.wait_complete(healthy, 60.0));
  writer.release(doomed);
  writer.release(healthy);

  // The sibling committed byte-identically; the faulted target's previous
  // version survives.
  EXPECT_EQ(read_all(good, "out.bin"), payload);
  EXPECT_EQ(read_all(bad, "stay.bin"), old_stay);
  EXPECT_FALSE(bad.exists("stay.bin.wip"));

  // The writer thread survived: a fresh stream on the recovered device
  // completes normally.
  bad.inject_write_faults(0);
  const auto retry = writer.write_staged(bad, "stay.bin", payload);
  ASSERT_TRUE(writer.wait_complete(retry, 60.0));
  writer.release(retry);
  EXPECT_EQ(read_all(bad, "stay.bin"), payload);
}

TEST(AsyncWriter, GraceTimeoutThenCancelOnASlowDevice) {
  // The engine's trim pattern: bounded wait for the writer, cancel on
  // timeout, fall back to the previous file.
  TempDir dir("aw");
  Device dev = make_slow_device(dir, 10.0);  // 1 MiB ~ 0.105 s modelled
  const std::vector<std::byte> previous = make_payload(1000, 9);
  write_file(dev, "stay.bin", previous);  // ~0.1 ms, cheap

  AsyncWriter writer;
  const std::vector<std::byte> big = make_payload(2 * kMiB, 10);
  const auto id = writer.write_staged(dev, "stay.bin", big);

  // Far shorter than the ~0.2 s the device needs.
  EXPECT_FALSE(writer.wait_complete(id, 0.02));
  writer.cancel(id);
  EXPECT_FALSE(writer.wait_complete(id, 60.0));
  writer.release(id);

  EXPECT_EQ(read_all(dev, "stay.bin"), previous);
  EXPECT_FALSE(dev.exists("stay.bin.wip"));
}

TEST(AsyncWriter, ManyQueuedStreamsEachCommitTheirOwnBlob) {
  // 8 streams handed over back to back: the one writer thread drains
  // them in order, and each commits its own blob.
  TempDir dir("aw");
  Device dev = make_device(dir);
  AsyncWriter writer;

  constexpr int kStreams = 8;
  std::vector<AsyncWriter::StreamId> ids;
  std::vector<std::vector<std::byte>> payloads;
  for (int s = 0; s < kStreams; ++s) {
    payloads.push_back(make_payload(8000 + 17 * s, 100 + s));
    ids.push_back(
        writer.write_staged(dev, "part-" + std::to_string(s), payloads[s]));
  }
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(writer.wait_complete(ids[s], 60.0)) << "stream " << s;
    writer.release(ids[s]);
  }
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(read_all(dev, "part-" + std::to_string(s)), payloads[s]);
  }
}

TEST(AsyncWriter, ReleaseAutoCancelsAnActiveStream) {
  // The first append pays a 300 ms seek, so the release lands while the
  // stream is still active.
  TempDir dir("aw");
  Device dev = make_slow_device(dir, 20.0, 300.0);
  AsyncWriter writer;
  const std::vector<std::byte> data = make_payload(5000, 5);
  const auto id = writer.write_staged(dev, "stay.bin", data);
  writer.release(id);  // never committed: auto-cancel

  EXPECT_FALSE(dev.exists("stay.bin"));
  EXPECT_FALSE(dev.exists("stay.bin.wip"));

  // The slot is gone but the writer still serves new streams.
  const auto id2 = writer.write_staged(dev, "stay.bin", data);
  ASSERT_TRUE(writer.wait_complete(id2, 60.0));
  writer.release(id2);
  EXPECT_EQ(read_all(dev, "stay.bin"), data);
}

TEST(AsyncWriter, CancelRacingCommitReportsTheDiskTruth) {
  // A cancel() right after the hand-over races the writer thread's
  // commit sequence. Whichever side wins, the reported terminal state
  // must match the disk: completed => the new bytes were renamed onto
  // the target; cancelled => the previous version is untouched. A
  // cancel that lands mid-commit is a no-op (the stream completes), so
  // "cancelled but the target was replaced" can never be observed.
  TempDir dir("aw");
  Device dev = make_device(dir);
  const std::vector<std::byte> previous = make_payload(64, 1);
  write_file(dev, "stay.bin", previous);

  AsyncWriter writer;
  for (int round = 0; round < 50; ++round) {
    const std::vector<std::byte> fresh = make_payload(700, 100 + round);
    const auto id = writer.write_staged(dev, "stay.bin", fresh);
    writer.cancel(id);  // races the in-flight commit
    writer.wait_complete(id, 60.0);
    const auto state = writer.state(id);
    writer.release(id);

    ASSERT_TRUE(state == AsyncWriter::StreamState::completed ||
                state == AsyncWriter::StreamState::cancelled);
    EXPECT_FALSE(dev.exists("stay.bin.wip"));
    if (state == AsyncWriter::StreamState::completed) {
      EXPECT_EQ(read_all(dev, "stay.bin"), fresh);
      write_file(dev, "stay.bin", previous);  // reset for the next round
    } else {
      EXPECT_EQ(read_all(dev, "stay.bin"), previous);
    }
  }
}

TEST(AsyncWriter, ReleaseAfterFaultLeavesNoStragglerHazard) {
  // A write fault on the first append fails the stream; the writer
  // skips the blob's remaining appends, acknowledges, and keeps serving
  // new streams once the producer has released the failed one.
  TempDir dir("aw");
  Device dev = make_device(dir);
  const std::vector<std::byte> data =
      make_payload(3 * AsyncWriter::kAppendBytes, 3);
  AsyncWriter writer;
  for (int round = 0; round < 20; ++round) {
    dev.inject_write_faults(1);
    const auto id = writer.write_staged(dev, "stay.bin", data);
    writer.wait_complete(id, 60.0);
    EXPECT_EQ(writer.state(id), AsyncWriter::StreamState::failed);
    writer.release(id);
    EXPECT_FALSE(dev.exists("stay.bin.wip"));

    dev.inject_write_faults(0);
    const auto id2 = writer.write_staged(dev, "stay.bin", data);
    ASSERT_TRUE(writer.wait_complete(id2, 60.0));
    writer.release(id2);
    EXPECT_EQ(read_all(dev, "stay.bin"), data);
  }
}

TEST(AsyncWriter, DestructorAbandonsActiveStreamsSafely) {
  TempDir dir("aw");
  Device dev = make_slow_device(dir, 20.0, 300.0);
  const std::vector<std::byte> previous = make_payload(100, 1);
  write_file(dev, "stay.bin", previous);
  {
    AsyncWriter writer;
    writer.write_staged(dev, "stay.bin", make_payload(10'000, 2));
    writer.write_staged(dev, "other.bin", make_payload(10'000, 3));
    // Never waited for nor released: the destructor must cancel and join.
  }
  EXPECT_EQ(read_all(dev, "stay.bin"), previous);
  EXPECT_FALSE(dev.exists("stay.bin.wip"));
  EXPECT_FALSE(dev.exists("other.bin"));
  EXPECT_FALSE(dev.exists("other.bin.wip"));
}

}  // namespace
}  // namespace fbfs::io
