#include "storage/prefetch.hpp"

#include <cstring>

namespace fbfs::io {

PrefetchReader::PrefetchReader(File& file, std::size_t buffer_bytes,
                               std::uint64_t offset, std::size_t num_buffers)
    : file_(&file),
      start_offset_(offset),
      slots_(num_buffers < 2 ? 2 : num_buffers) {
  for (Slot& slot : slots_) {
    slot.data =
        OverwriteBuffer<std::byte>(buffer_bytes == 0 ? 1 : buffer_bytes);
  }
  fetcher_ = std::thread([this] { fetch_loop(); });
}

PrefetchReader::~PrefetchReader() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  slot_freed_.notify_all();
  fetcher_.join();
}

void PrefetchReader::fetch_loop() {
  std::uint64_t offset = start_offset_;
  std::size_t index = 0;
  std::vector<ReadRequest> requests;
  for (;;) {
    // Free slots are consecutive in ring order starting at `index`:
    // the fetcher fills and the consumer drains in the same order.
    std::size_t free_count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      slot_freed_.wait(lock, [&] { return stop_ || !slots_[index].full; });
      if (stop_) return;
      while (free_count < slots_.size() &&
             !slots_[(index + free_count) % slots_.size()].full) {
        ++free_count;
      }
    }
    // The transfers (and any modelled device delay) run outside the
    // lock: this is the overlap the reader exists for. All free slots
    // go down as one batch — one ring submission on the real backend.
    requests.clear();
    for (std::size_t k = 0; k < free_count; ++k) {
      Slot& slot = slots_[(index + k) % slots_.size()];
      requests.push_back({file_, offset + k * slot.data.size(),
                          slot.data.data(), slot.data.size(), 0});
    }
    file_->device().read_batch(requests);
    bool eof = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t k = 0; k < free_count && !eof; ++k) {
        Slot& slot = slots_[(index + k) % slots_.size()];
        const std::size_t got = requests[k].got;
        slot.size = got;
        slot.full = got > 0;
        offset += got;
        // A short slot is EOF; later requests in this batch started
        // past it and transferred nothing.
        if (got < slot.data.size()) {
          eof = true;
          done_ = true;
        }
      }
    }
    slot_filled_.notify_all();
    if (eof) return;  // EOF snapshot: equivalence holds for static files
    index = (index + free_count) % slots_.size();
  }
}

std::size_t PrefetchReader::read(void* dst, std::size_t bytes) {
  auto* out = static_cast<std::byte*>(dst);
  std::size_t total = 0;
  while (total < bytes) {
    Slot& slot = slots_[head_];
    {
      std::unique_lock<std::mutex> lock(mutex_);
      slot_filled_.wait(lock, [&] { return slot.full || done_; });
      if (!slot.full) break;  // drained past EOF
    }
    const std::size_t have = slot.size - pos_;
    const std::size_t want = bytes - total;
    const std::size_t take = want < have ? want : have;
    std::memcpy(out + total, slot.data.data() + pos_, take);
    pos_ += take;
    total += take;
    if (pos_ == slot.size) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slot.full = false;
      }
      slot_freed_.notify_one();
      head_ = (head_ + 1) % slots_.size();
      pos_ = 0;
    }
  }
  consumed_ += total;
  return total;
}

}  // namespace fbfs::io
