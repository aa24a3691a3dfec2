#include "storage/device.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fbfs::io {

namespace {

double env_time_scale() {
  const char* env = std::getenv("FASTBFS_TIME_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(parsed >= 0.0) ||
      !std::isfinite(parsed)) {
    FB_LOG_WARN << "ignoring invalid FASTBFS_TIME_SCALE: " << env;
    return 1.0;
  }
  return parsed;
}

std::uint64_t transfer_ns(std::uint64_t bytes, double mb_s) {
  if (mb_s <= 0.0) return 0;
  // bytes / (mb_s * 1e6 B/s) seconds = bytes * 1000 / mb_s ns.
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(bytes) * 1000.0 / mb_s));
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

}  // namespace

DeviceModel DeviceModel::hdd() {
  DeviceModel m;
  m.name = "hdd";
  m.read_mb_s = 110.0;
  m.write_mb_s = 105.0;
  m.seek_ns = 8'000'000;  // 8 ms
  m.time_scale = env_time_scale();
  return m;
}

DeviceModel DeviceModel::ssd() {
  DeviceModel m;
  m.name = "ssd";
  m.read_mb_s = 250.0;
  m.write_mb_s = 200.0;
  m.seek_ns = 60'000;  // 60 us
  m.time_scale = env_time_scale();
  return m;
}

DeviceModel DeviceModel::unthrottled() {
  DeviceModel m;
  m.name = "unthrottled";
  m.time_scale = env_time_scale();
  return m;
}

std::uint64_t DeviceModel::seek_equivalent_bytes() const {
  if (read_mb_s <= 0.0) return 0;
  // seek_ns * 1e-9 s at read_mb_s * 1e6 B/s.
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(seek_ns) * read_mb_s / 1000.0));
}

std::uint64_t DeviceModel::read_service_ns(std::uint64_t bytes,
                                           bool seek) const {
  return (seek ? seek_ns : 0) + transfer_ns(bytes, read_mb_s);
}

std::uint64_t DeviceModel::write_service_ns(std::uint64_t bytes,
                                            bool seek) const {
  return (seek ? seek_ns : 0) + transfer_ns(bytes, write_mb_s);
}

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kModelled:
      return "modelled";
    case BackendKind::kReal:
      return "real";
  }
  return "?";
}

BackendKind backend_kind_from_string(const std::string& s) {
  if (s == "modelled") return BackendKind::kModelled;
  if (s == "real") return BackendKind::kReal;
  throw IoError("unknown storage backend \"" + s +
                "\" (expected modelled|real)");
}

// ----------------------------------------------------------- IoBackend

int IoBackend::fd(const File& f) { return f.fd_; }
int IoBackend::direct_fd(const File& f) { return f.direct_fd_; }
std::uint64_t IoBackend::file_id(const File& f) { return f.id_; }

void IoBackend::charge(Device& d, bool is_write, std::uint64_t file_id,
                       std::uint64_t offset, std::uint64_t bytes) {
  d.charge(is_write, file_id, offset, bytes);
}

void IoBackend::account_measured(Device& d, bool is_write,
                                 std::uint64_t file_id, std::uint64_t offset,
                                 std::uint64_t bytes,
                                 std::uint64_t measured_ns) {
  d.account_measured(is_write, file_id, offset, bytes, measured_ns);
}

namespace {

// The token-bucket simulation: plain buffered syscalls, with every
// transfer charged to the device timeline. This is byte-for-byte and
// stat-for-stat the pre-seam Device behavior — the modelled IoStats
// numbers are load-bearing across DESIGN invariants and BENCH history,
// so nothing here may reorder or merge charges.
class ModelledBackend final : public IoBackend {
 public:
  explicit ModelledBackend(Device& device) : device_(device) {}

  BackendKind kind() const override { return BackendKind::kModelled; }
  std::string describe() const override { return "modelled"; }

  void open_file(const std::string& path, bool truncate, int* fd,
                 int* direct_fd) override {
    int flags = O_RDWR | O_CLOEXEC;
    if (truncate) flags |= O_CREAT | O_TRUNC;
    *fd = ::open(path.c_str(), flags, 0644);
    if (*fd < 0) throw_errno("open " + path);
    *direct_fd = -1;
  }

  std::size_t read_at(File& file, std::uint64_t offset, void* dst,
                      std::size_t bytes) override {
    std::size_t total = 0;
    auto* out = static_cast<char*>(dst);
    while (total < bytes) {
      const ssize_t n = ::pread(fd(file), out + total, bytes - total,
                                static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("pread " + file.path());
      }
      if (n == 0) break;  // end of file
      total += static_cast<std::size_t>(n);
    }
    // Zero-byte transfers (EOF probes) never reach a disk; don't account
    // them, so byte and op counters stay exactly the logical traffic.
    if (total > 0) {
      charge(device_, /*is_write=*/false, file_id(file), offset, total);
    }
    return total;
  }

  void write_at(File& file, std::uint64_t offset, const void* src,
                std::size_t bytes) override {
    charge(device_, /*is_write=*/true, file_id(file), offset, bytes);
    std::size_t total = 0;
    const auto* in = static_cast<const char*>(src);
    while (total < bytes) {
      const ssize_t n = ::pwrite(fd(file), in + total, bytes - total,
                                 static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("pwrite " + file.path());
      }
      total += static_cast<std::size_t>(n);
    }
  }

  void read_batch(std::span<ReadRequest> requests) override {
    // In submission order, one charge per request: stats identical to
    // the caller issuing the reads itself.
    for (ReadRequest& r : requests) {
      r.got = read_at(*r.file, r.offset, r.dst, r.bytes);
    }
  }

  void sync(File& file) override {
    if (::fdatasync(fd(file)) != 0) throw_errno("fdatasync " + file.path());
  }

 private:
  Device& device_;
};

}  // namespace

// ---------------------------------------------------------------- File

File::File(Device* device, std::string name, int fd, int direct_fd,
           std::uint64_t id, std::uint64_t size)
    : device_(device),
      name_(std::move(name)),
      fd_(fd),
      direct_fd_(direct_fd),
      id_(id),
      size_(size) {}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
  if (direct_fd_ >= 0) ::close(direct_fd_);
}

std::string File::path() const { return device_->path(name_); }

std::uint64_t File::size() const {
  return size_.load(std::memory_order_acquire);
}

std::size_t File::read_at(std::uint64_t offset, void* dst,
                          std::size_t bytes) {
  device_->consume_fault(device_->read_faults_, "read", name_);
  return device_->backend_->read_at(*this, offset, dst, bytes);
}

void File::write_at(std::uint64_t offset, const void* src,
                    std::size_t bytes) {
  if (bytes == 0) return;
  device_->consume_fault(device_->write_faults_, "write", name_);
  device_->backend_->write_at(*this, offset, src, bytes);
  std::lock_guard<std::mutex> lock(size_mutex_);
  if (offset + bytes > size_.load(std::memory_order_relaxed)) {
    size_.store(offset + bytes, std::memory_order_release);
  }
}

std::uint64_t File::append(const void* src, std::size_t bytes) {
  if (bytes == 0) return size();
  std::uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(size_mutex_);
    offset = size_.load(std::memory_order_relaxed);
    // Reserve the range; concurrent appenders get disjoint ranges.
    size_.store(offset + bytes, std::memory_order_release);
  }
  try {
    device_->consume_fault(device_->write_faults_, "write", name_);
    device_->backend_->write_at(*this, offset, src, bytes);
  } catch (...) {
    std::lock_guard<std::mutex> lock(size_mutex_);
    // Roll back a reservation still at the tail (the common case).
    if (size_.load(std::memory_order_relaxed) == offset + bytes) {
      size_.store(offset, std::memory_order_release);
    }
    throw;
  }
  return offset;
}

void File::sync() { device_->backend_->sync(*this); }

// -------------------------------------------------------------- Device

Device::Device(std::string root_dir, DeviceModel model, BackendOptions backend)
    : root_(std::move(root_dir)),
      model_(std::move(model)),
      backend_options_(backend) {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  FB_CHECK_MSG(!ec, "cannot create device root " << root_ << ": "
                                                 << ec.message());
  // After the root exists: the real backend probes it for O_DIRECT.
  if (backend_options_.kind == BackendKind::kReal) {
    backend_ = make_real_backend(*this, backend_options_);
  } else {
    backend_ = std::make_unique<ModelledBackend>(*this);
  }
}

Device::~Device() = default;

std::string Device::path(const std::string& name) const {
  return root_ + "/" + name;
}

std::unique_ptr<File> Device::open(const std::string& name, bool truncate) {
  int fd = -1;
  int direct_fd = -1;
  backend_->open_file(path(name), truncate, &fd, &direct_fd);
  const auto size = static_cast<std::uint64_t>(::lseek(fd, 0, SEEK_END));
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(schedule_mutex_);
    id = next_file_id_++;
  }
  return std::unique_ptr<File>(
      new File(this, name, fd, direct_fd, id, size));
}

void Device::read_batch(std::span<ReadRequest> requests) {
  for (const ReadRequest& r : requests) {
    consume_fault(read_faults_, "read", r.file->name());
  }
  backend_->read_batch(requests);
}

bool Device::exists(const std::string& name) const {
  return std::filesystem::exists(path(name));
}

std::uint64_t Device::file_size(const std::string& name) const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path(name), ec);
  FB_CHECK_MSG(!ec, "file_size " << path(name) << ": " << ec.message());
  return size;
}

void Device::remove(const std::string& name) {
  std::error_code ec;
  std::filesystem::remove(path(name), ec);
  FB_CHECK_MSG(!ec, "remove " << path(name) << ": " << ec.message());
}

void Device::rename(const std::string& from, const std::string& to) {
  if (::rename(path(from).c_str(), path(to).c_str()) != 0) {
    throw_errno("rename " + path(from) + " -> " + path(to));
  }
}

std::vector<std::string> Device::list_files() const {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    if (entry.is_regular_file()) out.push_back(entry.path().filename());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Device::inject_write_faults(std::uint64_t n) {
  write_faults_.store(n, std::memory_order_relaxed);
}

std::uint64_t Device::pending_write_faults() const {
  return write_faults_.load(std::memory_order_relaxed);
}

void Device::inject_read_faults(std::uint64_t n) {
  read_faults_.store(n, std::memory_order_relaxed);
}

std::uint64_t Device::pending_read_faults() const {
  return read_faults_.load(std::memory_order_relaxed);
}

void Device::consume_fault(std::atomic<std::uint64_t>& pending,
                           const char* kind, const std::string& file_name) {
  std::uint64_t left = pending.load(std::memory_order_relaxed);
  while (left > 0) {
    if (pending.compare_exchange_weak(left, left - 1,
                                      std::memory_order_relaxed)) {
      throw IoError(std::string("injected ") + kind + " fault on " +
                    path(file_name));
    }
  }
}

void Device::charge(bool is_write, std::uint64_t file_id,
                    std::uint64_t offset, std::uint64_t bytes) {
  using clock = std::chrono::steady_clock;
  clock::time_point reservation_end;
  bool must_sleep;
  {
    std::lock_guard<std::mutex> lock(schedule_mutex_);
    // A single head: the op seeks unless it starts exactly where the
    // previous op on this device ended, in the same file.
    const bool seek = !(head_file_ == file_id && head_offset_ == offset);
    if (seek) stats_.record_seek();
    head_file_ = file_id;
    head_offset_ = offset + bytes;

    const std::uint64_t model_ns = is_write
                                       ? model_.write_service_ns(bytes, seek)
                                       : model_.read_service_ns(bytes, seek);
    const auto scaled_ns = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(model_ns) * model_.time_scale));
    stats_.record_busy(scaled_ns, model_ns);
    if (is_write) {
      stats_.record_write(bytes);
    } else {
      stats_.record_read(bytes);
    }

    const auto now = clock::now();
    const auto start = std::max(now, next_free_);
    reservation_end = start + std::chrono::nanoseconds(scaled_ns);
    next_free_ = reservation_end;
    must_sleep = scaled_ns > 0;
  }
  // Sleep outside the lock: the modelled timeline serialises the device,
  // but accounting by other threads is never blocked behind a delay.
  if (must_sleep) std::this_thread::sleep_until(reservation_end);
}

void Device::account_measured(bool is_write, std::uint64_t file_id,
                              std::uint64_t offset, std::uint64_t bytes,
                              std::uint64_t measured_ns) {
  {
    std::lock_guard<std::mutex> lock(schedule_mutex_);
    // Same head tracking as charge(): on a real device the seek counter
    // becomes "non-sequential accesses", which is what the DeviceModel's
    // seek term prices, so measured and modelled stats stay comparable.
    const bool seek = !(head_file_ == file_id && head_offset_ == offset);
    if (seek) stats_.record_seek();
    head_file_ = file_id;
    head_offset_ = offset + bytes;

    // busy_ns: measured wall time. model_busy_ns: what the DeviceModel
    // *predicts* for this op — every real run doubles as a
    // measured-vs-modelled validation of the simulator.
    const std::uint64_t model_ns = is_write
                                       ? model_.write_service_ns(bytes, seek)
                                       : model_.read_service_ns(bytes, seek);
    stats_.record_busy(measured_ns, model_ns);
    if (is_write) {
      stats_.record_write(bytes);
    } else {
      stats_.record_read(bytes);
    }
  }
  if (is_write) {
    write_latency_.record(measured_ns);
  } else {
    read_latency_.record(measured_ns);
  }
}

}  // namespace fbfs::io
