// The codec layer's own acceptance suite: varint boundary encodings,
// cross-format round-trip equivalence, the exact cost model's auto
// picks and degrade-to-raw rules, golden on-disk bytes pinning every
// format, and CHECK-fatal rejection of truncated or corrupted files.
#include "storage/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/temp_dir.hpp"

namespace fbfs::io::codec {
namespace {

// A stand-in update record — the codec must work from this header's
// concepts alone, with no dependency on graph/ types.
struct Upd {
  std::uint32_t dst;
  std::uint32_t level;
  bool operator==(const Upd&) const = default;
};
static_assert(RoutedRecord<Upd>);

// dst NOT first: the payload excision must handle interior offsets.
struct WideUpd {
  std::uint64_t weight;
  std::uint32_t dst;
  std::uint32_t hops;
  bool operator==(const WideUpd&) const = default;
};
static_assert(RoutedRecord<WideUpd>);
static_assert(dst_offset_of<WideUpd>() == 8);

// No dst field at all — state-file shaped, raw-only.
struct StateRec {
  double score;
  std::uint32_t flags;
  std::uint32_t pad;
  bool operator==(const StateRec&) const = default;
};
static_assert(!RoutedRecord<StateRec>);
static_assert(dst_offset_of<StateRec>() == kNoDstField);

Device make_device(const TempDir& dir) {
  return Device(dir.str(), DeviceModel::unthrottled());
}

std::vector<Upd> sorted(std::vector<Upd> v) {
  std::stable_sort(v.begin(), v.end(), [](const Upd& a, const Upd& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.level < b.level;
  });
  return v;
}

// ------------------------------------------------------------- varint

TEST(Codec, VarintBoundaryValuesRoundTrip) {
  std::vector<std::uint64_t> values = {0, 1};
  for (unsigned bits = 7; bits < 64; bits += 7) {
    const std::uint64_t edge = 1ull << bits;  // first value needing +1 byte
    values.push_back(edge - 1);
    values.push_back(edge);
    values.push_back(edge + 1);
  }
  values.push_back(~0ull - 1);
  values.push_back(~0ull);

  for (const std::uint64_t v : values) {
    std::byte buf[10];
    const std::size_t put = put_varint(v, buf);
    ASSERT_EQ(put, varint_size(v)) << "value " << v;
    ASSERT_LE(put, 10u);
    std::size_t pos = 0;
    ASSERT_EQ(get_varint(std::span<const std::byte>(buf, put), pos), v);
    ASSERT_EQ(pos, put);
  }
  // The size function's exact stairs.
  EXPECT_EQ(varint_size(0x7f), 1u);
  EXPECT_EQ(varint_size(0x80), 2u);
  EXPECT_EQ(varint_size(0x3fff), 2u);
  EXPECT_EQ(varint_size(0x4000), 3u);
  EXPECT_EQ(varint_size(~0ull), 10u);
}

TEST(Codec, VarintsConcatenateCleanly) {
  const std::uint64_t values[] = {0, 300, 1, 0x123456789abcdef0ull, 127, 128};
  std::vector<std::byte> buf;
  for (const std::uint64_t v : values) {
    std::byte tmp[10];
    const std::size_t n = put_varint(v, tmp);
    buf.insert(buf.end(), tmp, tmp + n);
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    ASSERT_EQ(get_varint(buf, pos), v);
  }
  ASSERT_EQ(pos, buf.size());
}

TEST(CodecDeath, VarintTruncationAndOverwidthAreFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // High bit set on the last byte: the stream promises more.
  const std::byte truncated[] = {std::byte{0xff}};
  std::size_t pos = 0;
  EXPECT_DEATH(get_varint(std::span<const std::byte>(truncated, 1), pos),
               "truncated");
  // Eleven continuation bytes: wider than any uint64.
  std::vector<std::byte> wide(11, std::byte{0xff});
  wide.push_back(std::byte{0x01});
  pos = 0;
  EXPECT_DEATH(get_varint(wide, pos), "wider than 64 bits");
}

// ------------------------------------------------------ policy parsing

TEST(Codec, PolicyNamesRoundTrip) {
  for (const Policy p :
       {Policy::kRaw, Policy::kBitmap, Policy::kVarint, Policy::kAuto}) {
    EXPECT_EQ(parse_policy(to_string(p)), p);
  }
  EXPECT_STREQ(to_string(Format::kRaw), "raw");
  EXPECT_STREQ(to_string(Format::kBitmap), "bitmap");
  EXPECT_STREQ(to_string(Format::kVarint), "varint");
}

TEST(CodecDeath, UnknownPolicyNameIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(parse_policy("gzip"), "unknown update codec");
}

// ----------------------------------------------- cross-format fidelity

std::vector<Upd> random_updates(std::uint64_t n, std::uint32_t begin,
                                std::uint32_t end, std::uint64_t seed) {
  fbfs::Rng rng(seed);
  std::vector<Upd> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back({.dst = begin + static_cast<std::uint32_t>(
                              rng.next_below(end - begin)),
                   .level = static_cast<std::uint32_t>(rng.next_below(5))});
  }
  return out;
}

TEST(Codec, RawAndVarintPreserveTheExactMultiset) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  const std::uint32_t begin = 960, end = 2000;
  const std::vector<Upd> updates = random_updates(500, begin, end, 42);
  const EncodeOptions base{.policy = Policy::kRaw,
                           .allow_bitmap = false,
                           .range_begin = begin,
                           .range_end = end};
  for (const Policy policy : {Policy::kRaw, Policy::kVarint, Policy::kAuto}) {
    SCOPED_TRACE(to_string(policy));
    EncodeOptions opts = base;
    opts.policy = policy;
    CodecWriter<Upd> writer(dev, "upd", 256, opts);
    for (const Upd& u : updates) writer.append(u);
    ASSERT_EQ(writer.records_appended(), updates.size());
    const auto result = writer.close();
    ASSERT_EQ(result.staged_records, updates.size());
    ASSERT_EQ(result.records, updates.size());  // no collapsing formats here

    // Tiny reads force many decode batches.
    const std::vector<Upd> back =
        read_all<Upd>(dev, "upd", {.buffer_bytes = 64}, updates.size());
    EXPECT_EQ(sorted(back), sorted(updates));
    if (policy == Policy::kRaw) {
      EXPECT_EQ(back, updates);  // raw also preserves append order
    }
  }
}

TEST(Codec, BitmapCollapsesDuplicatesForIdenticalPayloads) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  // BFS-round shape: every update carries the same level.
  std::vector<Upd> updates;
  for (const std::uint32_t dst : {17u, 3u, 64u, 3u, 17u, 120u, 3u}) {
    updates.push_back({.dst = dst, .level = 9});
  }
  const EncodeOptions opts{.policy = Policy::kBitmap,
                           .allow_bitmap = true,
                           .range_begin = 0,
                           .range_end = 128};
  CodecWriter<Upd> writer(dev, "upd", 1 << 12, opts);
  writer.append_batch(updates);
  const auto result = writer.close();
  ASSERT_EQ(result.format, Format::kBitmap);
  ASSERT_EQ(result.staged_records, 7u);
  ASSERT_EQ(result.records, 4u);  // {3, 17, 64, 120}

  const std::vector<Upd> back = read_all<Upd>(dev, "upd", {}, 4);
  const std::vector<Upd> want = {
      {3, 9}, {17, 9}, {64, 9}, {120, 9}};  // ascending destinations
  EXPECT_EQ(back, want);
}

TEST(Codec, InteriorDstOffsetRoundTripsEveryFormat) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<WideUpd> updates;
  fbfs::Rng rng(7);
  for (std::uint32_t i = 0; i < 200; ++i) {
    updates.push_back({.weight = rng.next_u64(),
                       .dst = 100 + static_cast<std::uint32_t>(
                                        rng.next_below(400)),
                       .hops = i});
  }
  for (const Policy policy : {Policy::kRaw, Policy::kVarint}) {
    SCOPED_TRACE(to_string(policy));
    const EncodeOptions opts{.policy = policy,
                             .allow_bitmap = false,
                             .range_begin = 100,
                             .range_end = 500};
    CodecWriter<WideUpd> writer(dev, "wide", 1 << 10, opts);
    writer.append_batch(updates);
    writer.close();
    std::vector<WideUpd> back =
        read_all<WideUpd>(dev, "wide", {}, updates.size());
    auto key = [](const WideUpd& a, const WideUpd& b) {
      return a.dst != b.dst ? a.dst < b.dst : a.hops < b.hops;
    };
    std::vector<WideUpd> want = updates;
    std::stable_sort(back.begin(), back.end(), key);
    std::stable_sort(want.begin(), want.end(), key);
    EXPECT_EQ(back, want);
  }
}

TEST(Codec, VarintKeepsEqualDestinationsInAppendOrder) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  // Same dst, distinct payloads: the stable sort must keep append order
  // so the encoding (and any downstream fold trace) is deterministic.
  const std::vector<Upd> updates = {{5, 30}, {2, 10}, {5, 31}, {5, 32}};
  const EncodeOptions opts{.policy = Policy::kVarint,
                           .allow_bitmap = false,
                           .range_begin = 0,
                           .range_end = 8};
  CodecWriter<Upd> writer(dev, "upd", 1 << 10, opts);
  writer.append_batch(updates);
  ASSERT_EQ(writer.close().format, Format::kVarint);
  const std::vector<Upd> back = read_all<Upd>(dev, "upd", {}, 4);
  const std::vector<Upd> want = {{2, 10}, {5, 30}, {5, 31}, {5, 32}};
  EXPECT_EQ(back, want);
}

TEST(Codec, EmptyStreamsRoundTripUnderEveryPolicy) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  for (const Policy policy :
       {Policy::kRaw, Policy::kBitmap, Policy::kVarint, Policy::kAuto}) {
    SCOPED_TRACE(to_string(policy));
    const EncodeOptions opts{.policy = policy,
                             .allow_bitmap = true,
                             .range_begin = 0,
                             .range_end = 64};
    CodecWriter<Upd> writer(dev, "empty", 1 << 10, opts);
    const auto result = writer.close();
    EXPECT_EQ(result.records, 0u);
    EXPECT_TRUE(read_all<Upd>(dev, "empty", {}, 0).empty());
  }
}

TEST(Codec, StateRecordsStreamRawUnderAnyPolicy) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<StateRec> states;
  for (std::uint32_t i = 0; i < 100; ++i) {
    states.push_back({.score = i * 0.5, .flags = i, .pad = 0});
  }
  for (const Policy policy : {Policy::kRaw, Policy::kAuto, Policy::kBitmap}) {
    SCOPED_TRACE(to_string(policy));
    CodecWriter<StateRec> writer(dev, "states", 128, {.policy = policy});
    writer.append_batch(states);
    const auto result = writer.close();
    EXPECT_EQ(result.format, Format::kRaw);
    // dst-less types always stream: header first, count from file size.
    EXPECT_EQ(probe(dev, "states").record_count, kCountFromFileSize);
    EXPECT_EQ(read_all<StateRec>(dev, "states", {}, states.size()), states);
  }
}

// ----------------------------------------------------- the cost model

TEST(Codec, AutoPicksBitmapForDenseIdenticalPayloadRounds) {
  // 1000 updates into a 1024-vertex range, all payloads equal: raw is
  // 8000 B, varint ~5000 B, bitmap is 4 + 128 = 132 B.
  std::vector<Upd> updates;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    updates.push_back({.dst = (i * 37) % 1024, .level = 4});
  }
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kAuto, .allow_bitmap = true,
                .range_begin = 0, .range_end = 1024});
  EXPECT_EQ(blob.format, Format::kBitmap);
  EXPECT_EQ(blob.bytes.size(), kHeaderBytes + 4 + 128);
}

TEST(Codec, AutoPicksVarintWhenPayloadsDiffer) {
  // Same density, but distinct payloads kill bitmap eligibility; sorted
  // deltas over a 1024 range are 1-2 bytes each, so varint beats raw's
  // 8 B/record.
  std::vector<Upd> updates;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    updates.push_back({.dst = (i * 37) % 1024, .level = i});
  }
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kAuto, .allow_bitmap = true,
                .range_begin = 0, .range_end = 1024});
  EXPECT_EQ(blob.format, Format::kVarint);
  EXPECT_LT(blob.bytes.size(), kHeaderBytes + updates.size() * sizeof(Upd));
}

TEST(Codec, AutoKeepsRawForSparseStreamsOverHugeRanges) {
  // Four updates spread across the full 2^32 range: every sorted delta
  // is >= 2^28, so its varint costs 5 bytes against the 4 raw dst bytes
  // it replaces, and the bitmap alone would be 512 MiB.
  const std::vector<Upd> updates = {
      {0x10000000u, 1}, {0x40000000u, 1}, {0x80000000u, 1}, {0xC0000000u, 1}};
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kAuto, .allow_bitmap = true,
                .range_begin = 0, .range_end = 1ull << 32});
  EXPECT_EQ(blob.format, Format::kRaw);
}

/// The blob the exact three-cost model picks from the forced encodes:
/// the smallest eligible one, ties to the lower format id (raw first).
/// A forced format that degraded to raw is ineligible.
template <typename T>
EncodedBlob three_cost_reference(std::span<const T> records,
                                 EncodeOptions opts) {
  EncodedBlob best;
  for (const Policy policy : {Policy::kRaw, Policy::kBitmap, Policy::kVarint}) {
    opts.policy = policy;
    EncodedBlob blob = encode_records<T>(records, opts);
    const bool eligible = static_cast<int>(blob.format) ==
                          static_cast<int>(policy);
    if (policy == Policy::kRaw ||
        (eligible && blob.bytes.size() < best.bytes.size())) {
      best = std::move(blob);
    }
  }
  return best;
}

template <typename T>
void expect_auto_matches_reference(std::span<const T> records,
                                   EncodeOptions opts,
                                   std::array<int, kNumFormats>& picks) {
  const EncodedBlob want = three_cost_reference<T>(records, opts);
  opts.policy = Policy::kAuto;
  const EncodedBlob got = encode_records<T>(records, opts);
  ASSERT_EQ(got.format, want.format);
  ASSERT_EQ(got.records, want.records);
  ASSERT_EQ(got.bytes, want.bytes);
  ++picks[static_cast<std::size_t>(got.format)];
}

/// `n` records over [begin, begin + range) with payloads from `level`
/// (called per record) and destinations from `dst` (likewise), in a
/// seeded shuffled order.
template <typename T, typename Dst, typename Level>
std::vector<T> make_stream(std::uint64_t n, Dst dst, Level level, Rng& rng) {
  std::vector<T> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i].dst = dst(i);
    if constexpr (std::is_same_v<T, Upd>) {
      out[i].level = level(i);
    } else {
      out[i].weight = level(i);
      out[i].hops = level(i) + 1;
    }
  }
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

TEST(Codec, AutoMatchesTheThreeCostReferenceOnSeededStreams) {
  // kAuto leaves varint unpriced when the bitmap beats raw and is no
  // larger than n × (1 + payload), the least a varint stream can cost.
  // Its blob must still be exactly the one the three-cost reference
  // picks. Random streams first, then streams at and one record either
  // side of that floor whose varint costs exactly the floor (distinct
  // destinations less than 128 apart), for both payload widths.
  std::array<int, kNumFormats> picks{};
  Rng rng(20261018);
  const auto random_streams = [&]<typename T>(std::type_identity<T>) {
    for (int trial = 0; trial < 300; ++trial) {
      // Log-uniform ranges up to 2^30: wide sparse ones price varint at
      // raw's cost or above. Bitmaps stay licensed only up to 2^16 bits.
      const std::uint32_t begin =
          static_cast<std::uint32_t>(rng.next_below(1000));
      const std::uint64_t range =
          1 + rng.next_below(std::uint64_t{1} << (1 + rng.next_below(30)));
      const std::uint64_t n = rng.next_below(300);
      const bool same_payload = rng.next_below(2) == 0;
      const std::vector<T> records = make_stream<T>(
          n,
          [&](std::uint64_t) {
            return begin + static_cast<std::uint32_t>(rng.next_below(range));
          },
          [&](std::uint64_t) {
            return same_payload ? 3u
                                : static_cast<std::uint32_t>(rng.next_below(4));
          },
          rng);
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_auto_matches_reference<T>(
          records,
          {.allow_bitmap = range <= (1u << 16) && rng.next_below(4) != 0,
           .range_begin = begin,
           .range_end = begin + range},
          picks);
    }
  };
  random_streams(std::type_identity<Upd>{});
  random_streams(std::type_identity<WideUpd>{});

  int at_floor = 0;
  const auto floor_streams = [&]<typename T>(std::type_identity<T>) {
    constexpr std::uint64_t payload = sizeof(T) - 4;
    for (std::uint64_t words = 1; words <= 40; ++words) {
      const std::uint64_t range = 64 * words;
      const std::uint64_t bitmap_cost = payload + 8 * words;
      const std::uint64_t floor_n = bitmap_cost / (1 + payload);
      at_floor += floor_n * (1 + payload) == bitmap_cost;
      for (std::uint64_t n = floor_n - 1; n <= floor_n + 1; ++n) {
        if (n == 0 || n > range) continue;
        const std::uint64_t step = std::min<std::uint64_t>(127, range / n);
        const std::vector<T> records = make_stream<T>(
            n, [&](std::uint64_t i) { return 500 + i * step; },
            [](std::uint64_t) { return 2u; }, rng);
        SCOPED_TRACE("words " + std::to_string(words) + ", n " +
                     std::to_string(n));
        expect_auto_matches_reference<T>(
            records,
            {.allow_bitmap = true, .range_begin = 500,
             .range_end = 500 + range},
            picks);
      }
    }
  };
  floor_streams(std::type_identity<Upd>{});
  floor_streams(std::type_identity<WideUpd>{});

  // The streams reach every format, and the floor itself is hit.
  EXPECT_GT(picks[static_cast<std::size_t>(Format::kRaw)], 0);
  EXPECT_GT(picks[static_cast<std::size_t>(Format::kBitmap)], 0);
  EXPECT_GT(picks[static_cast<std::size_t>(Format::kVarint)], 0);
  EXPECT_GT(at_floor, 0);
}

/// The varint blob with its records ordered by std::stable_sort on the
/// destination: the reference the encoder's own sort must match byte for
/// byte.
template <typename T>
std::vector<std::byte> stable_sort_varint_reference(std::vector<T> records,
                                                    std::uint64_t range_begin,
                                                    std::uint64_t range_end) {
  std::stable_sort(records.begin(), records.end(),
                   [](const T& a, const T& b) { return a.dst < b.dst; });
  constexpr std::uint32_t off = dst_offset_of<T>();
  std::vector<std::byte> payload;
  std::uint64_t prev = range_begin;
  for (const T& r : records) {
    std::byte delta[10];
    payload.insert(payload.end(), delta, delta + put_varint(r.dst - prev, delta));
    const auto* bytes = reinterpret_cast<const std::byte*>(&r);
    payload.insert(payload.end(), bytes, bytes + off);
    payload.insert(payload.end(), bytes + off + 4, bytes + sizeof(T));
    prev = r.dst;
  }
  FileHeader header;
  header.format = static_cast<std::uint16_t>(Format::kVarint);
  header.record_size = sizeof(T);
  header.dst_offset = off;
  header.record_count = records.size();
  header.payload_bytes = payload.size();
  header.range_begin = range_begin;
  header.range_end = range_end;
  std::vector<std::byte> blob(kHeaderBytes + payload.size());
  std::memcpy(blob.data(), &header, kHeaderBytes);
  std::copy(payload.begin(), payload.end(), blob.begin() + kHeaderBytes);
  return blob;
}

TEST(Codec, VarintOrderMatchesAStableSortOnSeededStreams) {
  // Seeded streams for both payload widths (4 and 12 bytes), from empty
  // to 2^17 records, over partition ranges, a stay-shaped [0, n) range
  // and the full 32-bit range: uniform destinations, heavy duplicates,
  // a single destination, and destinations that differ only in their
  // top byte (so the sort skips the bytes every record shares). Payloads
  // are random, so a reordering of equal destinations shows.
  Rng rng(20261019);
  int streams = 0;
  const auto check = [&]<typename T>(std::type_identity<T>) {
    struct Range {
      std::uint64_t begin, end;
    };
    for (const Range range : {Range{960, 2000}, Range{1u << 20, 3u << 20},
                              Range{0, 1u << 17}, Range{0, 1ull << 32}}) {
      for (const std::uint64_t n :
           {0ull, 1ull, 2ull, 3ull, 255ull, 256ull, 257ull, 1000ull,
            1ull << 17}) {
        for (int shape = 0; shape < 4; ++shape) {
          const std::uint64_t span = range.end - range.begin;
          const auto dst = [&](std::uint64_t) -> std::uint32_t {
            switch (shape) {
              case 0:
                return static_cast<std::uint32_t>(range.begin +
                                                  rng.next_below(span));
              case 1:
                return static_cast<std::uint32_t>(
                    range.begin + rng.next_below(std::min<std::uint64_t>(
                                      span, 7)));
              case 2:
                return static_cast<std::uint32_t>(range.begin + span / 2);
              default:
                return static_cast<std::uint32_t>(
                    range.begin + (span >> 8) * rng.next_below(4) +
                    rng.next_below(2));
            }
          };
          const std::vector<T> records = make_stream<T>(
              n, dst,
              [&](std::uint64_t) {
                return static_cast<std::uint32_t>(rng.next_below(1000));
              },
              rng);
          SCOPED_TRACE("range [" + std::to_string(range.begin) + ", " +
                       std::to_string(range.end) + "), n " +
                       std::to_string(n) + ", shape " + std::to_string(shape));
          const EncodedBlob blob = encode_records<T>(
              records, {.policy = Policy::kVarint,
                        .range_begin = range.begin,
                        .range_end = range.end});
          ASSERT_EQ(blob.format, Format::kVarint);
          ASSERT_EQ(blob.bytes, stable_sort_varint_reference<T>(
                                    records, range.begin, range.end));
          ++streams;
        }
      }
    }
  };
  check(std::type_identity<Upd>{});
  check(std::type_identity<WideUpd>{});
  EXPECT_EQ(streams, 2 * 4 * 9 * 4);
}

TEST(Codec, ForcedFormatsDegradeToRawWhenIneligible) {
  const std::vector<Upd> mixed = {{1, 1}, {2, 2}};
  // Bitmap without the idempotence licence.
  EXPECT_EQ(encode_records<Upd>(mixed, {.policy = Policy::kBitmap,
                                        .allow_bitmap = false,
                                        .range_begin = 0, .range_end = 8})
                .format,
            Format::kRaw);
  // Bitmap licensed but payloads differ.
  EXPECT_EQ(encode_records<Upd>(mixed, {.policy = Policy::kBitmap,
                                        .allow_bitmap = true,
                                        .range_begin = 0, .range_end = 8})
                .format,
            Format::kRaw);
  // Any dst-keyed format without a range.
  EXPECT_EQ(encode_records<Upd>(mixed, {.policy = Policy::kVarint}).format,
            Format::kRaw);
}

TEST(CodecDeath, OutOfRangeDestinationIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Upd> updates = {{5, 1}};
  EXPECT_DEATH(encode_records<Upd>(updates, {.policy = Policy::kVarint,
                                             .range_begin = 0,
                                             .range_end = 4}),
               "outside the stream range");
}

// -------------------------------------------------------- golden bytes

std::vector<std::byte> header_bytes(const FileHeader& h) {
  std::vector<std::byte> out(kHeaderBytes);
  std::memcpy(out.data(), &h, kHeaderBytes);
  return out;
}

void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

TEST(Codec, GoldenRawBytes) {
  const std::vector<Upd> updates = {{5, 1}, {3, 1}};
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kRaw, .range_begin = 0, .range_end = 8});

  FileHeader h;
  h.format = 0;
  h.record_size = 8;
  h.dst_offset = 0;
  h.record_count = 2;
  h.payload_bytes = 16;
  h.range_begin = 0;
  h.range_end = 8;
  std::vector<std::byte> want = header_bytes(h);
  append_u32(want, 5);  // records verbatim, append order
  append_u32(want, 1);
  append_u32(want, 3);
  append_u32(want, 1);
  EXPECT_EQ(blob.bytes, want);
}

TEST(Codec, GoldenBitmapBytes) {
  const std::vector<Upd> updates = {{5, 7}, {3, 7}, {5, 7}};
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kBitmap, .allow_bitmap = true,
                .range_begin = 0, .range_end = 8});
  ASSERT_EQ(blob.format, Format::kBitmap);

  FileHeader h;
  h.format = 1;
  h.record_size = 8;
  h.dst_offset = 0;
  h.record_count = 2;       // {3, 5} after collapsing
  h.payload_bytes = 4 + 8;  // payload template + one bitmap word
  h.range_begin = 0;
  h.range_end = 8;
  std::vector<std::byte> want = header_bytes(h);
  append_u32(want, 7);                       // the shared level payload
  append_u64(want, (1u << 3) | (1u << 5));  // bits 3 and 5
  EXPECT_EQ(blob.bytes, want);
}

TEST(Codec, GoldenVarintBytes) {
  const std::vector<Upd> updates = {{133, 1}, {3, 2}};
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kVarint, .range_begin = 0,
                .range_end = 256});
  ASSERT_EQ(blob.format, Format::kVarint);

  FileHeader h;
  h.format = 2;
  h.record_size = 8;
  h.dst_offset = 0;
  h.record_count = 2;
  h.payload_bytes = 1 + 4 + 2 + 4;  // delta 3 (1 B), delta 130 (2 B)
  h.range_begin = 0;
  h.range_end = 256;
  std::vector<std::byte> want = header_bytes(h);
  want.push_back(std::byte{0x03});  // dst 3 = base 0 + 3
  append_u32(want, 2);
  want.push_back(std::byte{0x82});  // dst 133 = 3 + 130 = [0x82, 0x01]
  want.push_back(std::byte{0x01});
  append_u32(want, 1);
  EXPECT_EQ(blob.bytes, want);
}

TEST(Codec, ProbeReportsTheWrittenHeader) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  const std::vector<Upd> updates = {{9, 1}, {4, 1}};
  CodecWriter<Upd> writer(dev, "upd", 1 << 10,
                          {.policy = Policy::kVarint, .range_begin = 0,
                           .range_end = 16});
  writer.append_batch(updates);
  writer.close();
  const FileHeader h = probe(dev, "upd");
  EXPECT_EQ(h.magic, kMagic);
  EXPECT_EQ(h.version, kVersion);
  EXPECT_EQ(static_cast<Format>(h.format), Format::kVarint);
  EXPECT_EQ(h.record_size, sizeof(Upd));
  EXPECT_EQ(h.record_count, 2u);
  EXPECT_EQ(h.range_end, 16u);
}

// ----------------------------------------------- corruption rejection

void write_bytes(Device& dev, const std::string& name,
                 std::span<const std::byte> bytes) {
  auto f = dev.open(name, /*truncate=*/true);
  StreamWriter out(*f, 1 << 12);
  out.append_raw(bytes.data(), bytes.size());
  out.flush();
}

std::vector<std::byte> valid_file_bytes() {
  const std::vector<Upd> updates = {{5, 1}, {3, 1}};
  return encode_records<Upd>(updates, {.policy = Policy::kRaw,
                                       .range_begin = 0, .range_end = 8})
      .bytes;
}

TEST(CodecDeath, TruncatedHeaderIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  const std::vector<std::byte> bytes = valid_file_bytes();
  write_bytes(dev, "short", std::span(bytes).first(10));
  EXPECT_DEATH(open_reader<Upd>(dev, "short", {}), "not a codec file");
}

TEST(CodecDeath, ForeignMagicIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<std::byte> bytes = valid_file_bytes();
  bytes[0] = std::byte{0x00};
  write_bytes(dev, "magic", bytes);
  EXPECT_DEATH(open_reader<Upd>(dev, "magic", {}), "codec magic");
}

TEST(CodecDeath, FutureVersionIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<std::byte> bytes = valid_file_bytes();
  const std::uint16_t version = kVersion + 1;
  std::memcpy(bytes.data() + 4, &version, 2);
  write_bytes(dev, "vers", bytes);
  EXPECT_DEATH(open_reader<Upd>(dev, "vers", {}), "codec version");
}

TEST(CodecDeath, UnknownFormatIdIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<std::byte> bytes = valid_file_bytes();
  const std::uint16_t format = 7;
  std::memcpy(bytes.data() + 6, &format, 2);
  write_bytes(dev, "fmt", bytes);
  EXPECT_DEATH(open_reader<Upd>(dev, "fmt", {}), "unknown codec format");
}

TEST(CodecDeath, RecordSizeMismatchIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  write_bytes(dev, "upd", valid_file_bytes());
  EXPECT_DEATH(open_reader<WideUpd>(dev, "upd", {}), "records of size");
}

TEST(CodecDeath, DstKeyedFormatOnDstlessTypeIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  struct Dstless {
    std::uint32_t a;
    std::uint32_t b;
  };
  static_assert(sizeof(Dstless) == sizeof(Upd));
  CodecWriter<Upd> writer(dev, "upd", 1 << 10,
                          {.policy = Policy::kVarint, .range_begin = 0,
                           .range_end = 16});
  writer.append({4, 1});
  ASSERT_EQ(writer.close().format, Format::kVarint);
  EXPECT_DEATH(open_reader<Dstless>(dev, "upd", {}), "dst offset");
}

TEST(CodecDeath, TruncatedVarintPayloadIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  const std::vector<Upd> updates = {{5, 1}, {3, 1}};
  const EncodedBlob blob = encode_records<Upd>(
      updates, {.policy = Policy::kVarint, .range_begin = 0, .range_end = 8});
  ASSERT_EQ(blob.format, Format::kVarint);
  write_bytes(dev, "trunc",
              std::span(blob.bytes).first(blob.bytes.size() - 3));
  EXPECT_DEATH(read_all<Upd>(dev, "trunc", {}, 2), "truncated");
}

TEST(CodecDeath, RawTailBytesAreFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  std::vector<std::byte> bytes = valid_file_bytes();
  bytes.push_back(std::byte{0xab});  // half a record
  write_bytes(dev, "tail", bytes);
  EXPECT_DEATH(read_all<Upd>(dev, "tail", {}, 2), "mid-record");
}

TEST(CodecDeath, WrongExpectedCountIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TempDir dir("codec");
  Device dev = make_device(dir);
  write_bytes(dev, "upd", valid_file_bytes());
  EXPECT_DEATH(read_all<Upd>(dev, "upd", {}, 3), "expected 3");
}

TEST(Codec, ReadAllWithoutExpectedCountTakesTheWholeFile) {
  TempDir dir("codec");
  Device dev = make_device(dir);
  write_bytes(dev, "upd", valid_file_bytes());
  const std::vector<Upd> got = read_all<Upd>(dev, "upd", {});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].dst, 5u);
  EXPECT_EQ(got[1].dst, 3u);
}

}  // namespace
}  // namespace fbfs::io::codec
