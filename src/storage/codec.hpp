// Update-stream codecs: the self-describing on-disk encodings behind
// every state/update/stay stream the engines write.
//
// Fig. 5 measured update files at 64-86% of all bytes written — the
// update stream, not edge input, dominates the streaming engines' I/O.
// Following the compression-and-sieve levers (PAPERS.md), every codec
// file starts with one fixed FileHeader naming its format, so readers
// never guess, and the payload is one of three encodings:
//
//   kRaw     the records verbatim — today's layout, the format-0
//            fallback every stream can always use (and the only format
//            for records without a `dst` field, i.e. state files);
//   kBitmap  one shared payload + a destination bitmap over the
//            stream's vertex range. Exact only when the caller proves
//            (a) every record's payload bytes are identical and (b) the
//            program's gather is idempotent, so collapsing duplicate
//            destinations cannot change a single state or activation —
//            BFS rounds (every update carries level r+1) are the
//            showcase: a dense round's update file shrinks from
//            8 bytes/update to range/8 bits total;
//   kVarint  records stable-sorted by destination, each encoded as a
//            varint delta from the previous destination plus its
//            payload bytes verbatim. Exact for EVERY program: the
//            engine contract (graph/program.hpp) already requires
//            gathers to be order-free exact folds, so delivering a
//            partition's updates in destination order is as legal as
//            any shuffle order. Multiplicity is preserved.
//
// CodecWriter picks the format at close() with an EXACT byte-cost
// model — no estimates: raw = n*sizeof(T); bitmap = payload +
// range/8 (when eligible); varint = the true sum of the sorted deltas'
// varint sizes + n*payload. Policy kAuto takes the cheapest (ties
// prefer the lower format id, raw first), and skips the varint sort
// when the bitmap is no larger than n*(1 + payload), the least any
// varint stream can cost; a forced policy is honoured
// whenever the stream is eligible and degrades to raw otherwise, so
// forcing `bitmap` on an ineligible stream is safe, never wrong.
//
// Writers buffer records in memory for the non-raw policies (the cost
// model wants the whole stream; at this repo's partition sizes that is
// the same order as the gather phase's in-memory update batch). Policy
// kRaw streams straight through a StreamWriter — the header goes first
// with sentinel counts and the reader derives the record count from the
// file size, which is what keeps the raw writer append-only.
//
// Readers come back through open_reader<T>() as a type-erased
// RecordSource<T>, built over open_stream_reader for a file on a device
// or over open_memory_reader, which decodes a blob the caller kept in
// memory through the same decoders. Decoded delivery order: raw =
// append order, bitmap/varint = ascending destination.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/check.hpp"
#include "storage/device.hpp"
#include "storage/reader_factory.hpp"
#include "storage/stream.hpp"

namespace fbfs::io::codec {

enum class Format : std::uint16_t {
  kRaw = 0,
  kBitmap = 1,
  kVarint = 2,
};
inline constexpr std::size_t kNumFormats = 3;

/// Per-stream format policy: a forced format (degrading to raw when the
/// stream is ineligible) or the exact-cost-model choice.
enum class Policy {
  kRaw = 0,
  kBitmap = 1,
  kVarint = 2,
  kAuto = 3,
};

/// Aborts listing the valid names on anything but
/// "raw"/"bitmap"/"varint"/"auto".
Policy parse_policy(const std::string& name);
const char* to_string(Policy policy);
const char* to_string(Format format);

inline constexpr std::uint32_t kMagic = 0x43554246;  // "FBUC"
inline constexpr std::uint16_t kVersion = 1;
/// record_count/payload_bytes value of a streamed-raw header: the
/// counts were unknown when the header was appended; the reader derives
/// them from the file size.
inline constexpr std::uint64_t kCountFromFileSize = ~0ull;
/// dst_offset value for record types without a `dst` field (states).
inline constexpr std::uint32_t kNoDstField = ~0u;

/// The fixed header opening every codec file. Native-endian, like every
/// other on-disk record in this repo (single-server system).
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kVersion;
  std::uint16_t format = 0;  // Format
  std::uint32_t record_size = 0;
  std::uint32_t dst_offset = kNoDstField;
  std::uint64_t record_count = 0;   // records a decoder delivers
  std::uint64_t payload_bytes = 0;  // encoded bytes after this header
  std::uint64_t range_begin = 0;    // varint delta base / bitmap bit 0
  std::uint64_t range_end = 0;      // exclusive; 0 when unused
};
static_assert(sizeof(FileHeader) == 48, "on-disk header layout is pinned");
static_assert(std::is_trivially_copyable_v<FileHeader>);
inline constexpr std::uint64_t kHeaderBytes = sizeof(FileHeader);

// ------------------------------------------------------------- varint

inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// LEB128 little-endian base-128; returns bytes written (<= 10).
inline std::size_t put_varint(std::uint64_t v, std::byte* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<std::byte>(v);
  return n;
}

/// Decodes one varint at `pos`, advancing it. CHECK-fatal on a
/// truncated or over-wide (> 64 bit) encoding.
inline std::uint64_t get_varint(std::span<const std::byte> buf,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    FB_CHECK_MSG(pos < buf.size(),
                 "varint stream truncated at byte " << pos);
    FB_CHECK_MSG(shift < 64, "varint wider than 64 bits");
    const auto b = std::to_integer<std::uint8_t>(buf[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

// ------------------------------------------------- record layout trait

/// A record the dst-keyed formats can encode: trivially copyable with a
/// 32-bit `dst` member (the engines' Update types and graph::Edge).
/// Anything else (state records) is raw-only.
template <typename T>
concept RoutedRecord = std::is_trivially_copyable_v<T> &&
    requires(const T t) {
      { t.dst } -> std::convertible_to<std::uint32_t>;
      requires sizeof(t.dst) == sizeof(std::uint32_t);
    };

template <typename T>
constexpr std::uint32_t dst_offset_of() {
  if constexpr (RoutedRecord<T>) {
    return static_cast<std::uint32_t>(offsetof(T, dst));
  } else {
    return kNoDstField;
  }
}

namespace detail {

/// Record bytes minus the 4-byte dst field, in layout order.
inline void copy_payload(const std::byte* rec, std::size_t record_size,
                         std::uint32_t dst_off, std::byte* out) {
  std::memcpy(out, rec, dst_off);
  std::memcpy(out + dst_off, rec + dst_off + 4, record_size - dst_off - 4);
}

inline void restore_record(const std::byte* payload, std::size_t record_size,
                           std::uint32_t dst_off, std::uint32_t dst,
                           std::byte* rec) {
  std::memcpy(rec, payload, dst_off);
  std::memcpy(rec + dst_off, &dst, 4);
  std::memcpy(rec + dst_off + 4, payload + dst_off,
              record_size - dst_off - 4);
}

/// The record indexes [0, n) stably sorted by `dst_of(i)`: a radix sort
/// on the 32-bit destination, least significant byte first, skipping a
/// byte every record shares. It takes one n-entry scratch array and
/// nothing sized by the destination range, so a sparse stream over a
/// huge range sorts as cheaply as a dense one.
template <typename DstOf>
std::vector<std::uint32_t> stable_order_by_dst(std::uint64_t n,
                                               const DstOf& dst_of) {
  constexpr int kDigits = 4;
  std::array<std::array<std::uint64_t, 256>, kDigits> counts{};
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t dst = dst_of(i);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(dst >> (8 * d)) & 0xff];
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> scratch;
  for (int d = 0; d < kDigits; ++d) {
    std::array<std::uint64_t, 256>& start = counts[d];
    if (std::find(start.begin(), start.end(), n) != start.end()) continue;
    std::uint64_t sum = 0;
    for (std::uint64_t& c : start) sum += std::exchange(c, sum);
    scratch.resize(n);
    for (const std::uint32_t i : order) {
      scratch[start[(dst_of(i) >> (8 * d)) & 0xff]++] = i;
    }
    order.swap(scratch);
  }
  return order;
}

}  // namespace detail

// ------------------------------------------------------------- encode

struct EncodeOptions {
  Policy policy = Policy::kRaw;
  /// The caller's proof that collapsing byte-identical duplicate
  /// destinations is exact — i.e. the stream feeds an idempotent gather
  /// (update streams yes; edge streams no, multi-edges must keep their
  /// multiplicity). Without it the bitmap format is never chosen.
  bool allow_bitmap = false;
  /// Destination range the stream may address: the bitmap's bit span
  /// and the varint delta base. Every routed record's dst must lie in
  /// [range_begin, range_end).
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
};

struct EncodedBlob {
  Format format = Format::kRaw;
  std::uint64_t records = 0;  // records a decoder will deliver
  std::vector<std::byte> bytes;  // header + payload
};

/// Encodes `records` under `opts` into one self-describing blob
/// (header included). Deterministic: same records + options => same
/// bytes. The returned record count differs from records.size() only
/// for the bitmap format (duplicate destinations collapse).
template <typename T>
EncodedBlob encode_records(std::span<const T> records,
                           const EncodeOptions& opts) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = records.size();
  constexpr std::uint32_t dst_off = dst_offset_of<T>();

  FileHeader header;
  header.record_size = sizeof(T);
  header.dst_offset = dst_off;
  header.range_begin = opts.range_begin;
  header.range_end = opts.range_end;

  EncodedBlob blob;
  const auto encode_raw = [&] {
    blob.format = Format::kRaw;
    blob.records = n;
    header.format = static_cast<std::uint16_t>(Format::kRaw);
    header.record_count = n;
    header.payload_bytes = n * sizeof(T);
    blob.bytes.resize(kHeaderBytes + n * sizeof(T));
    std::memcpy(blob.bytes.data(), &header, kHeaderBytes);
    if (n > 0) {
      std::memcpy(blob.bytes.data() + kHeaderBytes, records.data(),
                  n * sizeof(T));
    }
  };

  if constexpr (!RoutedRecord<T>) {
    // No dst field: raw is the only representable format; kAuto and the
    // forced dst-keyed policies all degrade to it.
    encode_raw();
    return blob;
  } else {
    constexpr std::size_t payload_size = sizeof(T) - 4;
    const std::uint64_t range_size =
        opts.range_end > opts.range_begin ? opts.range_end - opts.range_begin
                                          : 0;
    const bool ranged = range_size > 0;
    const auto rec_bytes = [&](std::uint64_t i) {
      return reinterpret_cast<const std::byte*>(records.data()) +
             i * sizeof(T);
    };
    const auto dst_of = [&](std::uint64_t i) {
      std::uint32_t dst;
      std::memcpy(&dst, rec_bytes(i) + dst_off, 4);
      return dst;
    };
    if (ranged) {
      for (std::uint64_t i = 0; i < n; ++i) {
        FB_CHECK_MSG(dst_of(i) >= opts.range_begin &&
                         dst_of(i) < opts.range_end,
                     "record destination " << dst_of(i)
                                           << " outside the stream range ["
                                           << opts.range_begin << ", "
                                           << opts.range_end << ")");
      }
    }

    // Bitmap eligibility: licensed, ranged, and every payload is
    // byte-identical (so the collapsed records are true duplicates).
    bool bitmap_ok = opts.allow_bitmap && ranged;
    if (bitmap_ok && payload_size > 0) {
      for (std::uint64_t i = 1; i < n && bitmap_ok; ++i) {
        bitmap_ok = std::memcmp(rec_bytes(0) + dst_off + 4,
                                rec_bytes(i) + dst_off + 4,
                                payload_size - dst_off) == 0 &&
                    std::memcmp(rec_bytes(0), rec_bytes(i), dst_off) == 0;
      }
    }
    const bool varint_ok = ranged;

    const std::uint64_t bitmap_words = (range_size + 63) / 64;
    const std::uint64_t raw_cost = n * sizeof(T);
    const std::uint64_t bitmap_cost =
        bitmap_ok ? payload_size + bitmap_words * 8
                  : std::numeric_limits<std::uint64_t>::max();
    // Every varint record costs at least 1 + payload_size bytes. A
    // bitmap that beats raw and costs no more than that floor therefore
    // wins kAuto whatever the varint price is, so it goes unpriced.
    const bool bitmap_wins = bitmap_cost < raw_cost &&
                             bitmap_cost <= n * (1 + payload_size);
    const bool price_varint =
        varint_ok && (opts.policy == Policy::kVarint ||
                      (opts.policy == Policy::kAuto && !bitmap_wins));

    // Destination order for the varint format (and its exact cost): a
    // stable sort keeps equal-dst records in append order, so the
    // encoding is deterministic.
    std::vector<std::uint32_t> order;
    std::uint64_t varint_payload = 0;
    if (price_varint) {
      order = detail::stable_order_by_dst(n, dst_of);
      std::uint64_t prev = opts.range_begin;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t dst = dst_of(order[i]);
        varint_payload += varint_size(dst - prev) + payload_size;
        prev = dst;
      }
    }

    // The exact byte-cost model; ties prefer the lower format id. An
    // unpriced varint cannot win: either it is ineligible or the bitmap
    // wins.
    Format format = Format::kRaw;
    if (opts.policy == Policy::kAuto) {
      const std::uint64_t varint_cost =
          price_varint ? varint_payload
                       : std::numeric_limits<std::uint64_t>::max();
      if (bitmap_cost < raw_cost && bitmap_cost <= varint_cost) {
        format = Format::kBitmap;
      } else if (varint_cost < raw_cost) {
        format = Format::kVarint;
      }
    } else if (opts.policy == Policy::kBitmap && bitmap_ok) {
      format = Format::kBitmap;
    } else if (opts.policy == Policy::kVarint && varint_ok) {
      format = Format::kVarint;
    }

    switch (format) {
      case Format::kRaw:
        encode_raw();
        break;
      case Format::kBitmap: {
        AtomicBitmap bits(range_size);
        for (std::uint64_t i = 0; i < n; ++i) {
          bits.set(dst_of(i) - opts.range_begin);
        }
        const std::uint64_t words = bits.num_words();
        blob.format = Format::kBitmap;
        blob.records = bits.count_set();
        header.format = static_cast<std::uint16_t>(Format::kBitmap);
        header.record_count = blob.records;
        header.payload_bytes = payload_size + words * 8;
        blob.bytes.resize(kHeaderBytes + header.payload_bytes);
        std::memcpy(blob.bytes.data(), &header, kHeaderBytes);
        if (n > 0) {
          detail::copy_payload(rec_bytes(0), sizeof(T), dst_off,
                               blob.bytes.data() + kHeaderBytes);
        } else {
          std::memset(blob.bytes.data() + kHeaderBytes, 0, payload_size);
        }
        for (std::uint64_t w = 0; w < words; ++w) {
          const std::uint64_t word = bits.word(w);
          std::memcpy(blob.bytes.data() + kHeaderBytes + payload_size + w * 8,
                      &word, 8);
        }
        break;
      }
      case Format::kVarint: {
        // Only a priced varint is ever chosen, so `order` is built.
        blob.format = Format::kVarint;
        blob.records = n;
        header.format = static_cast<std::uint16_t>(Format::kVarint);
        header.record_count = n;
        header.payload_bytes = varint_payload;
        blob.bytes.resize(kHeaderBytes + varint_payload);
        std::memcpy(blob.bytes.data(), &header, kHeaderBytes);
        std::byte* out = blob.bytes.data() + kHeaderBytes;
        std::uint64_t prev = opts.range_begin;
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint32_t dst = dst_of(order[i]);
          out += put_varint(dst - prev, out);
          detail::copy_payload(rec_bytes(order[i]), sizeof(T), dst_off, out);
          out += payload_size;
          prev = dst;
        }
        FB_CHECK_EQ(static_cast<std::uint64_t>(
                        out - (blob.bytes.data() + kHeaderBytes)),
                    varint_payload);
        break;
      }
    }
    return blob;
  }
}

/// The header a streamed-raw writer appends before its records (counts
/// come from the file size at read time).
template <typename T>
FileHeader raw_stream_header() {
  FileHeader header;
  header.format = static_cast<std::uint16_t>(Format::kRaw);
  header.record_size = sizeof(T);
  header.dst_offset = dst_offset_of<T>();
  header.record_count = kCountFromFileSize;
  header.payload_bytes = kCountFromFileSize;
  return header;
}

// ------------------------------------------------------------- writer

/// The typed append stream the engines write through. Policy kRaw (and
/// every policy for dst-less record types) streams through a buffered
/// writer exactly like RecordWriter did, header first; the other
/// policies stage records in memory and encode once at close() — or at
/// encode(), which hands the blob to a caller that may keep it in
/// memory instead of writing it.
template <typename T>
class CodecWriter {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  struct Result {
    Format format = Format::kRaw;
    std::uint64_t records = 0;         // records a reader will deliver
    std::uint64_t staged_records = 0;  // records appended pre-collapse
    std::uint64_t file_bytes = 0;      // header + payload
  };

  CodecWriter(Device& device, std::string name, std::size_t buffer_bytes,
              const EncodeOptions& opts = {})
      : device_(&device),
        name_(std::move(name)),
        buffer_bytes_(buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes),
        opts_(opts) {
    if (streaming()) {
      file_ = device_->open(name_, /*truncate=*/true);
      stream_.emplace(*file_, buffer_bytes_);
      const FileHeader header = raw_stream_header<T>();
      stream_->append_raw(&header, sizeof(header));
    }
  }

  void append(const T& record) {
    if (streaming()) {
      stream_->append_raw(&record, sizeof(T));
    } else {
      staged_.push_back(record);
    }
  }

  void append_batch(std::span<const T> records) {
    if (streaming()) {
      stream_->append_raw(records.data(), records.size() * sizeof(T));
    } else {
      staged_.insert(staged_.end(), records.begin(), records.end());
    }
  }

  std::uint64_t records_appended() const {
    if (streaming()) {
      return (stream_->bytes_appended() - kHeaderBytes) / sizeof(T);
    }
    return staged_.size();
  }

  /// Flushes (raw) or encodes and writes (staged policies); call once.
  Result close() {
    Result result;
    if (streaming()) {
      stream_->flush();
      result.format = Format::kRaw;
      result.staged_records = records_appended();
      result.records = result.staged_records;
      result.file_bytes = stream_->bytes_appended();
      return result;
    }
    result.staged_records = staged_.size();
    const EncodedBlob blob = encode();
    write(blob);
    result.format = blob.format;
    result.records = blob.records;
    result.file_bytes = blob.bytes.size();
    return result;
  }

  /// True when the writer streams to its file as records arrive (policy
  /// kRaw, or a dst-less record type); false when it stages them.
  bool streaming() const {
    return !RoutedRecord<T> || opts_.policy == Policy::kRaw;
  }

  /// Staged policies: encodes the staged records into one blob and
  /// releases them, so the blob replaces their memory rather than adding
  /// to it. Call once, instead of close(); write() puts the blob in the
  /// writer's file if the caller does not keep it.
  EncodedBlob encode() {
    FB_CHECK_MSG(!streaming(), name_ << " streams; there is nothing to encode");
    EncodedBlob blob = encode_records<T>(staged_, opts_);
    std::vector<T>().swap(staged_);
    return blob;
  }

  /// Writes `blob` (from encode()) as the writer's whole file.
  void write(const EncodedBlob& blob) {
    auto file = device_->open(name_, /*truncate=*/true);
    StreamWriter out(*file, buffer_bytes_);
    out.append_raw(blob.bytes.data(), blob.bytes.size());
    out.flush();
  }

  /// For a caller that keeps the blob from encode() instead of writing
  /// it: removes any file an earlier stream left under the writer's
  /// name, so the device never holds a stale stream there.
  void remove_file() { device_->remove(name_); }

 private:
  Device* device_;
  std::string name_;
  std::size_t buffer_bytes_;
  EncodeOptions opts_;
  std::unique_ptr<File> file_;        // streaming path
  std::optional<StreamWriter> stream_;
  std::vector<T> staged_;             // buffered policies
};

// ------------------------------------------------------------- reader

namespace detail {

/// Reads and validates a header off an already-open byte source.
inline FileHeader read_header(ByteSource& src, const std::string& name) {
  FileHeader header;
  const std::size_t got = src.read(&header, sizeof(header));
  FB_CHECK_MSG(got == sizeof(header),
               name << " is not a codec file: " << got
                    << " header bytes, expected " << sizeof(header));
  FB_CHECK_MSG(header.magic == kMagic,
               name << " has a foreign or corrupted codec magic");
  FB_CHECK_MSG(header.version == kVersion,
               name << " uses codec version " << header.version
                    << ", this build reads " << kVersion);
  FB_CHECK_MSG(header.format < kNumFormats,
               name << " names unknown codec format " << header.format);
  FB_CHECK_MSG(header.record_size > 0, name << " has zero record size");
  return header;
}

/// Raw payload: records verbatim after the header, streamed in batches
/// with RecordReader's truncated-tail CHECK. When the header
/// carries an exact count (buffered write), the total is CHECKed at end
/// of stream too.
template <typename T>
class RawDecodeSource final : public RecordSource<T> {
 public:
  RawDecodeSource(std::unique_ptr<ByteSource> src, std::size_t buffer_bytes,
                  std::uint64_t expected, std::string name)
      : src_(std::move(src)),
        batch_((buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes) /
               sizeof(T)),
        expected_(expected),
        name_(std::move(name)) {}

  bool next(T& out) override {
    if (cursor_ == loaded_) {
      load();
      if (loaded_ == 0) return false;
    }
    out = batch_[cursor_++];
    return true;
  }

  std::span<const T> next_batch() override {
    if (cursor_ == loaded_) load();
    const std::span<const T> out(batch_.data() + cursor_, loaded_ - cursor_);
    cursor_ = loaded_;
    return out;
  }

 private:
  void load() {
    const std::size_t got =
        src_->read(batch_.data(), batch_.size() * sizeof(T));
    FB_CHECK_MSG(got % sizeof(T) == 0,
                 name_ << " ends mid-record: " << got % sizeof(T)
                       << " stray tail bytes after "
                       << delivered_ + got / sizeof(T)
                       << " whole records of size " << sizeof(T));
    loaded_ = got / sizeof(T);
    cursor_ = 0;
    delivered_ += loaded_;
    if (loaded_ == 0 && expected_ != kCountFromFileSize) {
      FB_CHECK_MSG(delivered_ == expected_,
                   name_ << " decoded " << delivered_
                         << " records, header promised " << expected_);
    }
  }

  std::unique_ptr<ByteSource> src_;
  OverwriteBuffer<T> batch_;
  std::size_t cursor_ = 0;
  std::size_t loaded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t expected_;
  std::string name_;
};

/// Bitmap payload: the shared payload template plus the destination
/// words are read eagerly (they are the compressed representation, far
/// smaller than the decoded stream); records synthesize per batch in
/// ascending destination order.
template <typename T>
class BitmapDecodeSource final : public RecordSource<T> {
 public:
  BitmapDecodeSource(std::unique_ptr<ByteSource> src,
                     std::size_t buffer_bytes, const FileHeader& header,
                     std::string name)
      : header_(header),
        batch_((buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes) /
               sizeof(T)),
        name_(std::move(name)) {
    constexpr std::size_t payload_size = sizeof(T) - 4;
    const std::uint64_t range =
        header_.range_end - header_.range_begin;
    const std::uint64_t words = (range + 63) / 64;
    FB_CHECK_MSG(header_.payload_bytes == payload_size + words * 8,
                 name_ << " bitmap payload is " << header_.payload_bytes
                       << " bytes, expected " << payload_size + words * 8);
    payload_.resize(payload_size);
    words_.resize(words);
    std::size_t got = src->read(payload_.data(), payload_size);
    got += src->read(words_.data(), words * 8);
    FB_CHECK_MSG(got == header_.payload_bytes,
                 name_ << " bitmap payload truncated: " << got << " of "
                       << header_.payload_bytes << " bytes");
  }

  bool next(T& out) override {
    if (cursor_ == loaded_) {
      load();
      if (loaded_ == 0) return false;
    }
    out = batch_[cursor_++];
    return true;
  }

  std::span<const T> next_batch() override {
    if (cursor_ == loaded_) load();
    const std::span<const T> out(batch_.data() + cursor_, loaded_ - cursor_);
    cursor_ = loaded_;
    return out;
  }

 private:
  void load() {
    loaded_ = 0;
    cursor_ = 0;
    const std::uint64_t range = header_.range_end - header_.range_begin;
    while (loaded_ < batch_.size() && bit_ < range) {
      const std::uint64_t word = words_[bit_ >> 6] >> (bit_ & 63);
      if (word == 0) {
        bit_ = (bit_ & ~63ull) + 64;
        continue;
      }
      bit_ += static_cast<std::uint64_t>(__builtin_ctzll(word));
      if (bit_ >= range) break;
      const std::uint32_t dst =
          static_cast<std::uint32_t>(header_.range_begin + bit_);
      restore_record(payload_.data(), sizeof(T), header_.dst_offset, dst,
                     reinterpret_cast<std::byte*>(&batch_[loaded_]));
      ++loaded_;
      ++delivered_;
      ++bit_;
    }
    if (loaded_ == 0) {
      FB_CHECK_MSG(delivered_ == header_.record_count,
                   name_ << " decoded " << delivered_
                         << " records, header promised "
                         << header_.record_count);
    }
  }

  FileHeader header_;
  std::vector<std::byte> payload_;
  std::vector<std::uint64_t> words_;
  OverwriteBuffer<T> batch_;
  std::size_t cursor_ = 0;
  std::size_t loaded_ = 0;
  std::uint64_t bit_ = 0;        // next range-relative bit to inspect
  std::uint64_t delivered_ = 0;
  std::string name_;
};

/// Varint payload: the compressed bytes are read eagerly (again smaller
/// than the decoded stream) and decoded per batch.
template <typename T>
class VarintDecodeSource final : public RecordSource<T> {
 public:
  VarintDecodeSource(std::unique_ptr<ByteSource> src,
                     std::size_t buffer_bytes, const FileHeader& header,
                     std::string name)
      : header_(header),
        batch_((buffer_bytes < sizeof(T) ? sizeof(T) : buffer_bytes) /
               sizeof(T)),
        prev_(header.range_begin),
        name_(std::move(name)) {
    payload_.resize(header_.payload_bytes);
    const std::size_t got = src->read(payload_.data(), payload_.size());
    FB_CHECK_MSG(got == payload_.size(),
                 name_ << " varint payload truncated: " << got << " of "
                       << payload_.size() << " bytes");
  }

  bool next(T& out) override {
    if (cursor_ == loaded_) {
      load();
      if (loaded_ == 0) return false;
    }
    out = batch_[cursor_++];
    return true;
  }

  std::span<const T> next_batch() override {
    if (cursor_ == loaded_) load();
    const std::span<const T> out(batch_.data() + cursor_, loaded_ - cursor_);
    cursor_ = loaded_;
    return out;
  }

 private:
  void load() {
    constexpr std::size_t payload_size = sizeof(T) - 4;
    loaded_ = 0;
    cursor_ = 0;
    while (loaded_ < batch_.size() && delivered_ < header_.record_count) {
      const std::uint64_t delta = get_varint(payload_, pos_);
      prev_ += delta;
      FB_CHECK_MSG(pos_ + payload_size <= payload_.size(),
                   name_ << " varint record payload truncated at byte "
                         << pos_);
      restore_record(payload_.data() + pos_, sizeof(T), header_.dst_offset,
                     static_cast<std::uint32_t>(prev_),
                     reinterpret_cast<std::byte*>(&batch_[loaded_]));
      pos_ += payload_size;
      ++loaded_;
      ++delivered_;
    }
    if (loaded_ == 0) {
      FB_CHECK_MSG(pos_ == payload_.size(),
                   name_ << " has " << payload_.size() - pos_
                         << " trailing varint payload bytes after "
                         << delivered_ << " records");
    }
  }

  FileHeader header_;
  std::vector<std::byte> payload_;
  OverwriteBuffer<T> batch_;
  std::size_t cursor_ = 0;
  std::size_t loaded_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t prev_;
  std::uint64_t delivered_ = 0;
  std::string name_;
};

}  // namespace detail

/// Decodes the codec stream `src` delivers from its header on — a file
/// on a device (the overload below) or a blob kept in memory
/// (open_memory_reader) — as a type-erased RecordSource<T>, in batches
/// of up to `buffer_bytes`. `name` labels the stream in CHECK messages.
template <typename T>
std::unique_ptr<RecordSource<T>> open_reader(std::unique_ptr<ByteSource> src,
                                             const std::string& name,
                                             std::size_t buffer_bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  const FileHeader header = detail::read_header(*src, name);
  FB_CHECK_MSG(header.record_size == sizeof(T),
               name << " holds records of size " << header.record_size
                    << ", reader expects " << sizeof(T));
  FB_CHECK_MSG(header.dst_offset == dst_offset_of<T>(),
               name << " was written with dst offset " << header.dst_offset
                    << ", reader expects " << dst_offset_of<T>());
  switch (static_cast<Format>(header.format)) {
    case Format::kRaw:
      return std::make_unique<detail::RawDecodeSource<T>>(
          std::move(src), buffer_bytes, header.record_count, name);
    case Format::kBitmap:
      if constexpr (RoutedRecord<T>) {
        return std::make_unique<detail::BitmapDecodeSource<T>>(
            std::move(src), buffer_bytes, header, name);
      }
      break;
    case Format::kVarint:
      if constexpr (RoutedRecord<T>) {
        return std::make_unique<detail::VarintDecodeSource<T>>(
            std::move(src), buffer_bytes, header, name);
      }
      break;
  }
  FB_CHECK_MSG(false, name << " uses a dst-keyed format, but the record "
                              "type has no dst field");
  return nullptr;
}

/// Opens a codec file, read in opts.buffer_bytes pieces from its top.
template <typename T>
std::unique_ptr<RecordSource<T>> open_reader(Device& device,
                                             const std::string& name,
                                             const ReaderOptions& opts) {
  return open_reader<T>(open_stream_reader(device, name, opts), name,
                        opts.buffer_bytes);
}

/// Decodes the rest of `reader`; CHECKs the record count against
/// `expected` unless it is kCountFromFileSize (the default: take
/// whatever the stream holds).
template <typename T>
std::vector<T> read_all(RecordSource<T>& reader, const std::string& name,
                        std::uint64_t expected = kCountFromFileSize) {
  std::vector<T> out;
  if (expected != kCountFromFileSize) out.reserve(expected);
  for (auto batch = reader.next_batch(); !batch.empty();
       batch = reader.next_batch()) {
    out.insert(out.end(), batch.begin(), batch.end());
  }
  FB_CHECK_MSG(expected == kCountFromFileSize || out.size() == expected,
               name << " decodes to " << out.size() << " records, expected "
                    << expected);
  return out;
}

/// Decodes the whole file (see above).
template <typename T>
std::vector<T> read_all(Device& device, const std::string& name,
                        const ReaderOptions& opts,
                        std::uint64_t expected = kCountFromFileSize) {
  return read_all<T>(*open_reader<T>(device, name, opts), name, expected);
}

/// Reads just the header (48 bytes) — the tests' and tools' format
/// probe; the engines never need it (they remember what they wrote).
FileHeader probe(Device& device, const std::string& name);

}  // namespace fbfs::io::codec
