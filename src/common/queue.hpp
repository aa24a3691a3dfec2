// The bounded queue behind the AsyncWriter's work feed.
//
// MpscQueue — mutex+condvar multi-producer/single-consumer queue: any
//             thread appends, the one writer thread drains.
//
// It is closable: close() wakes blocked consumers, pop() drains the
// remaining items and then returns false, and push() on a closed queue
// is a checked programming error.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.hpp"

namespace fbfs {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity) : capacity_(capacity) {
    FB_CHECK_MSG(capacity > 0, "MpscQueue capacity must be positive");
  }

  std::size_t capacity() const { return capacity_; }

  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FB_CHECK_MSG(!closed_, "push into closed MpscQueue");
      if (items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while full. Pushing into a closed queue is a checked error.
  void push(T value) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      FB_CHECK_MSG(!closed_, "push into closed MpscQueue");
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      FB_CHECK_MSG(!closed_, "push into closed MpscQueue");
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
  }

  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Blocks while empty; returns false once closed and drained.
  bool pop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace fbfs
