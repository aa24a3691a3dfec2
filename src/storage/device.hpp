// Device: one disk, rooted at a host directory, behind an IoBackend.
//
// All engine I/O goes through Device-opened Files, so the device can
// (a) keep exact per-device IoStats and (b) either impose a timing
// model or hit real hardware. Which of the two happens is the
// IoBackend's business: File::read_at/write_at/append/sync and the
// batched Device::read_batch route every transfer through one backend
// object, selected per Device at construction (BackendOptions). The
// engines never see the difference.
//
//  * ModelledBackend — the repo's substitute for the paper's physical
//    HDDs/SSD (DESIGN.md, substitutions table). The model is a token
//    bucket: the device owns a single service timeline (`next free
//    time`); each operation reserves seek latency (when it does not
//    continue the previous operation's file + offset) plus
//    bytes/bandwidth of transfer time, then sleeps until its
//    reservation ends. One Device therefore serialises its own I/O —
//    concurrent readers contend like threads sharing a spindle — while
//    two Devices proceed fully in parallel, exactly like two disks.
//
//  * RealBackend (real_backend.cpp) — measured I/O on the host
//    filesystem: O_DIRECT opens with aligned bounce buffers (falling
//    back to buffered + posix_fadvise(DONTNEED) where the filesystem
//    refuses O_DIRECT, e.g. tmpfs), io_uring submission for batched
//    positional reads, and a synchronous pread/pwrite fallback when
//    io_uring is unavailable. IoStats byte/op/seek accounting stays
//    exact; busy_ns holds measured wall time while model_busy_ns holds
//    the DeviceModel's *predicted* service time, so a run is its own
//    measured-vs-modelled comparison. Measured per-op latency
//    additionally lands in the Device's read/write LatencyHistograms.
//
// FASTBFS_TIME_SCALE (default 1.0) multiplies every modelled delay; 0
// disables sleeping entirely while keeping byte/seek accounting exact.
// The env var is read when a DeviceModel factory runs; tests may also
// set `time_scale` directly. The real backend never sleeps.
//
// Faults: inject_write_faults(n) makes the next n write operations on
// the device throw IoError — how the tests stand in for a dying stay
// disk (DESIGN invariant 6: AsyncWriter must degrade, not crash) — and
// inject_read_faults(n) does the same for the next n reads, each
// File::read_at and each request of a read_batch, so the tests can check
// that a read error ends a call in IoError. Fault consumption lives
// above the backend seam, so injection behaves identically on both
// backends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/latency_histogram.hpp"
#include "storage/io_stats.hpp"

namespace fbfs::io {

/// Expected runtime I/O failure (disk full, injected fault, ...).
/// Distinct from FB_CHECK aborts: callers like AsyncWriter catch it and
/// degrade.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// Timing model of one disk. Bandwidths in MB/s (decimal, as vendors
/// quote); 0 bandwidth = unthrottled (no transfer delay).
struct DeviceModel {
  std::string name = "unthrottled";
  double read_mb_s = 0.0;
  double write_mb_s = 0.0;
  std::uint64_t seek_ns = 0;
  /// Multiplies every modelled delay; initialised from FASTBFS_TIME_SCALE
  /// by the factories below.
  double time_scale = 1.0;

  /// 7200rpm HDD: 110/105 MB/s sequential, 8 ms seek.
  static DeviceModel hdd();
  /// SATA SSD: 250/200 MB/s, 60 us access.
  static DeviceModel ssd();
  /// No modelled delays; still counts bytes/ops/seeks.
  static DeviceModel unthrottled();

  bool throttled() const { return read_mb_s > 0.0 || write_mb_s > 0.0; }

  /// Bytes one seek's latency would transfer at the read bandwidth,
  /// `seek_ns × read_mb_s / 1000`: reading through a gap of at most this
  /// many bytes costs no more than seeking over it. Unscaled, like the
  /// service times below; 0 when either term is 0.
  std::uint64_t seek_equivalent_bytes() const;

  /// Unscaled modelled service time of one operation. Monotone in
  /// `bytes`; `seek` adds the full seek penalty.
  std::uint64_t read_service_ns(std::uint64_t bytes, bool seek) const;
  std::uint64_t write_service_ns(std::uint64_t bytes, bool seek) const;
};

/// Which IoBackend a Device runs on.
enum class BackendKind {
  kModelled,  // token-bucket simulation (default; deterministic stats)
  kReal,      // measured I/O: O_DIRECT + io_uring where available
};

const char* to_string(BackendKind kind);
/// Parses "modelled" / "real" (throws IoError on anything else).
BackendKind backend_kind_from_string(const std::string& s);

/// Backend selection + real-backend tuning. The modelled backend
/// ignores everything but `kind`, so defaulted options keep today's
/// behavior bit-for-bit.
struct BackendOptions {
  BackendKind kind = BackendKind::kModelled;
  /// Real backend: try O_DIRECT opens (auto-falls back to buffered +
  /// posix_fadvise(DONTNEED) when the filesystem refuses, e.g. tmpfs).
  bool direct_io = true;
  /// Real backend: use io_uring for read_batch when the kernel has it
  /// (auto-falls back to synchronous preads when not).
  bool use_uring = true;
  /// Ring submission depth; also sizes queue-depth-aware consumers
  /// (the scatter's batched chunk reads).
  unsigned queue_depth = 8;
  /// O_DIRECT offset/length/buffer alignment (power of two).
  std::size_t alignment = 4096;
};

class Device;
class File;

/// One positional read in a Device::read_batch submission. `got` is the
/// out-param: bytes actually transferred (short only at end of file).
struct ReadRequest {
  File* file = nullptr;
  std::uint64_t offset = 0;
  void* dst = nullptr;
  std::size_t bytes = 0;
  std::size_t got = 0;
};

/// The seam between File/Device and the bytes' actual source. Both
/// implementations must preserve the Device contracts: exact IoStats
/// byte/op accounting, zero-byte transfers never charged, read_at short
/// only at end of file, IoError (not aborts) on runtime failure.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual BackendKind kind() const = 0;
  /// Human-readable mode string, e.g. "modelled" or
  /// "real(direct+uring qd=8)". Tests assert on the active fallbacks.
  virtual std::string describe() const = 0;

  /// Opens `path`, producing the buffered fd and (real backend, when
  /// the filesystem allows it) an O_DIRECT fd; *direct_fd = -1 when
  /// unused. Throws IoError on failure.
  virtual void open_file(const std::string& path, bool truncate, int* fd,
                         int* direct_fd) = 0;

  /// Full read_at semantics: loops partial reads to the requested span,
  /// returns bytes transferred (short only at end of file), accounts
  /// the transfer to the device. Throws IoError on failure.
  virtual std::size_t read_at(File& file, std::uint64_t offset, void* dst,
                              std::size_t bytes) = 0;

  /// Writes exactly `bytes` at `offset` and accounts it. Fault
  /// injection happens in File, above this call.
  virtual void write_at(File& file, std::uint64_t offset, const void* src,
                        std::size_t bytes) = 0;

  /// Executes every request, filling `got`. Modelled: in-order loop of
  /// read_at (so charge order — and therefore stats — is identical to
  /// the unbatched code). Real: one io_uring submission of up to
  /// queue_depth in-flight reads when available.
  virtual void read_batch(std::span<ReadRequest> requests) = 0;

  /// Flushes file data to stable storage (fdatasync).
  virtual void sync(File& file) = 0;

 protected:
  // Subclasses live behind this interface in other translation units;
  // these helpers route to Device/File privates via the base class's
  // friendship so the subclasses need none of their own.
  static int fd(const File& f);
  static int direct_fd(const File& f);
  static std::uint64_t file_id(const File& f);
  static void charge(Device& d, bool is_write, std::uint64_t file_id,
                     std::uint64_t offset, std::uint64_t bytes);
  static void account_measured(Device& d, bool is_write,
                               std::uint64_t file_id, std::uint64_t offset,
                               std::uint64_t bytes, std::uint64_t measured_ns);
};

/// One open file on a Device. Reading is positional (pread-style), so
/// any number of readers can stream the same File with private cursors;
/// writes either append or go to an explicit offset. Every transfer is
/// charged to the owning Device through its backend.
class File {
 public:
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  const std::string& name() const { return name_; }
  std::string path() const;
  Device& device() const { return *device_; }
  std::uint64_t size() const;

  /// Reads up to `bytes` at `offset`; returns the bytes transferred.
  /// Loops partial reads to the full requested span, so the result is
  /// short only at end of file — on both backends. Throws IoError on
  /// failure.
  std::size_t read_at(std::uint64_t offset, void* dst, std::size_t bytes);

  /// Writes exactly `bytes` at `offset`. Throws IoError on failure or
  /// injected fault.
  void write_at(std::uint64_t offset, const void* src, std::size_t bytes);

  /// Appends at the current end; returns the offset written at.
  std::uint64_t append(const void* src, std::size_t bytes);

  /// Flushes file data to stable storage (fdatasync).
  void sync();

 private:
  friend class Device;
  friend class IoBackend;
  File(Device* device, std::string name, int fd, int direct_fd,
       std::uint64_t id, std::uint64_t size);

  Device* device_;
  std::string name_;
  int fd_;
  int direct_fd_;     // real backend O_DIRECT fd, -1 when unused
  std::uint64_t id_;  // device-unique, for head-position tracking
  std::atomic<std::uint64_t> size_;
  std::mutex size_mutex_;  // append offset reservation
};

class Device {
 public:
  /// Roots the device at `root_dir` (created if absent). Defaulted
  /// `backend` selects the modelled token bucket — exactly the
  /// pre-seam behavior.
  Device(std::string root_dir, DeviceModel model, BackendOptions backend = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& root_dir() const { return root_; }
  const DeviceModel& model() const { return model_; }
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  const BackendOptions& backend_options() const { return backend_options_; }
  BackendKind backend_kind() const { return backend_->kind(); }
  /// The backend's live mode string (which fallbacks are active).
  std::string backend_description() const { return backend_->describe(); }

  /// Measured per-operation latency (real backend; the modelled backend
  /// records nothing here — its timing lives in IoStats busy_ns).
  metrics::LatencyHistogram read_latency() const {
    return read_latency_.snapshot();
  }
  metrics::LatencyHistogram write_latency() const {
    return write_latency_.snapshot();
  }

  /// Opens `name` under the root. truncate=true creates the file (or
  /// empties an existing one); truncate=false requires it to exist.
  std::unique_ptr<File> open(const std::string& name, bool truncate = false);

  /// Executes a batch of positional reads, filling each request's
  /// `got`. On the real backend with io_uring this is one ring
  /// submission with up to queue_depth reads in flight; otherwise an
  /// in-order loop of read_at with identical accounting.
  void read_batch(std::span<ReadRequest> requests);

  bool exists(const std::string& name) const;
  std::uint64_t file_size(const std::string& name) const;
  void remove(const std::string& name);
  /// Atomic within the device directory (POSIX rename).
  void rename(const std::string& from, const std::string& to);
  /// Names of regular files directly under the root, sorted.
  std::vector<std::string> list_files() const;
  std::string path(const std::string& name) const;

  /// The next `n` write operations on this device throw IoError.
  /// Replaces any still-pending faults; 0 clears them.
  void inject_write_faults(std::uint64_t n);
  std::uint64_t pending_write_faults() const;
  /// The same for the next `n` read operations: each File::read_at, and
  /// each request of a read_batch (the batch throws before any transfer).
  void inject_read_faults(std::uint64_t n);
  std::uint64_t pending_read_faults() const;

 private:
  friend class File;
  friend class IoBackend;

  /// Models + accounts one operation of `bytes` at (file, offset):
  /// reserves a slot on the device timeline, updates IoStats, sleeps out
  /// the scaled delay. Called by the modelled backend after (reads) or
  /// before (writes) the syscall.
  void charge(bool is_write, std::uint64_t file_id, std::uint64_t offset,
              std::uint64_t bytes);

  /// Real-backend accounting: same head/seek tracking and byte/op
  /// counters as charge(), but busy_ns records the *measured* wall time
  /// (model_busy_ns still records the model's prediction) and nothing
  /// ever sleeps. Also feeds the latency histograms.
  void account_measured(bool is_write, std::uint64_t file_id,
                        std::uint64_t offset, std::uint64_t bytes,
                        std::uint64_t measured_ns);

  /// Throws IoError when a fault of `pending` is left (consuming it).
  void consume_fault(std::atomic<std::uint64_t>& pending, const char* kind,
                     const std::string& file_name);

  std::string root_;
  DeviceModel model_;
  BackendOptions backend_options_;
  std::unique_ptr<IoBackend> backend_;
  IoStats stats_;

  metrics::ShardedHistogram read_latency_{16};
  metrics::ShardedHistogram write_latency_{16};

  std::mutex schedule_mutex_;
  std::chrono::steady_clock::time_point next_free_{};
  std::uint64_t head_file_ = 0;  // 0 = no operation yet
  std::uint64_t head_offset_ = 0;
  std::uint64_t next_file_id_ = 1;

  std::atomic<std::uint64_t> write_faults_{0};
  std::atomic<std::uint64_t> read_faults_{0};
};

/// Factory for the measured backend (real_backend.cpp). Probes the
/// device root for O_DIRECT support and the kernel for io_uring once at
/// construction; refused features degrade to the documented fallbacks.
std::unique_ptr<IoBackend> make_real_backend(Device& device,
                                             const BackendOptions& options);

}  // namespace fbfs::io
