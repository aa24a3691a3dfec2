// Fixed-size atomic bitmap: the frontier / visited-set representation
// shared by the engines. test_and_set is the BFS hot path ("claim this
// vertex"); plain set/test are relaxed reads used for frontier scans.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/check.hpp"

namespace fbfs {

class AtomicBitmap {
 public:
  explicit AtomicBitmap(std::uint64_t bits)
      : bits_(bits),
        words_((bits + 63) / 64),
        data_(std::make_unique<std::atomic<std::uint64_t>[]>(words_)) {
    reset();
  }

  std::uint64_t size() const { return bits_; }

  void set(std::uint64_t i) {
    check_index(i);
    data_[i >> 6].fetch_or(bit(i), std::memory_order_relaxed);
  }

  void clear(std::uint64_t i) {
    check_index(i);
    data_[i >> 6].fetch_and(~bit(i), std::memory_order_relaxed);
  }

  bool test(std::uint64_t i) const {
    check_index(i);
    return (data_[i >> 6].load(std::memory_order_relaxed) & bit(i)) != 0;
  }

  /// Sets bit i; returns its previous value. Exactly one of several
  /// concurrent callers on the same clear bit observes false.
  bool test_and_set(std::uint64_t i) {
    check_index(i);
    const std::uint64_t prev =
        data_[i >> 6].fetch_or(bit(i), std::memory_order_acq_rel);
    return (prev & bit(i)) != 0;
  }

  /// Clears every bit.
  void reset() {
    for (std::uint64_t w = 0; w < words_; ++w) {
      data_[w].store(0, std::memory_order_relaxed);
    }
  }

  std::uint64_t count_set() const {
    std::uint64_t total = 0;
    for (std::uint64_t w = 0; w < words_; ++w) {
      total += static_cast<std::uint64_t>(
          __builtin_popcountll(data_[w].load(std::memory_order_relaxed)));
    }
    return total;
  }

  bool any() const {
    for (std::uint64_t w = 0; w < words_; ++w) {
      if (data_[w].load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  /// True iff any bit in [begin, end) is set — the engines' per-round
  /// "does partition p have an active source?" probe. Word-level: a
  /// masked load for each boundary word, whole-word loads in between,
  /// so the scan is O(range/64) instead of O(range) test() calls.
  bool any_in_range(std::uint64_t begin, std::uint64_t end) const {
    FB_CHECK_LE(begin, end);
    FB_CHECK_LE(end, bits_);
    if (begin == end) return false;
    const std::uint64_t first = begin >> 6;
    const std::uint64_t last = (end - 1) >> 6;
    const std::uint64_t head_mask = ~0ull << (begin & 63);
    const std::uint64_t tail_mask = ~0ull >> (63 - ((end - 1) & 63));
    if (first == last) {
      return (data_[first].load(std::memory_order_relaxed) & head_mask &
              tail_mask) != 0;
    }
    if ((data_[first].load(std::memory_order_relaxed) & head_mask) != 0) {
      return true;
    }
    for (std::uint64_t w = first + 1; w < last; ++w) {
      if (data_[w].load(std::memory_order_relaxed) != 0) return true;
    }
    return (data_[last].load(std::memory_order_relaxed) & tail_mask) != 0;
  }

  /// True iff every bit in [begin, end) is set — the bottom-up
  /// engine's "is partition q fully visited?" probe (skip its in-edge
  /// scan outright). Same word-level shape as any_in_range.
  bool all_in_range(std::uint64_t begin, std::uint64_t end) const {
    FB_CHECK_LE(begin, end);
    FB_CHECK_LE(end, bits_);
    if (begin == end) return true;
    const std::uint64_t first = begin >> 6;
    const std::uint64_t last = (end - 1) >> 6;
    const std::uint64_t head_mask = ~0ull << (begin & 63);
    const std::uint64_t tail_mask = ~0ull >> (63 - ((end - 1) & 63));
    if (first == last) {
      const std::uint64_t mask = head_mask & tail_mask;
      return (data_[first].load(std::memory_order_relaxed) & mask) == mask;
    }
    if ((data_[first].load(std::memory_order_relaxed) & head_mask) !=
        head_mask) {
      return false;
    }
    for (std::uint64_t w = first + 1; w < last; ++w) {
      if (data_[w].load(std::memory_order_relaxed) != ~0ull) return false;
    }
    return (data_[last].load(std::memory_order_relaxed) & tail_mask) ==
           tail_mask;
  }

  std::uint64_t num_words() const { return words_; }

  /// Word w's 64 bits (bit i lives in word i>>6 at position i&63) — the
  /// update codec's bitmap format serializes these verbatim.
  std::uint64_t word(std::uint64_t w) const {
    FB_CHECK_LT(w, words_);
    return data_[w].load(std::memory_order_relaxed);
  }

  /// Sets every bit that is set in `other` (same size required) — how
  /// the streaming engine folds a round's frontier into its visited set.
  void or_with(const AtomicBitmap& other) {
    FB_CHECK_EQ(bits_, other.bits_);
    for (std::uint64_t w = 0; w < words_; ++w) {
      const std::uint64_t bits = other.data_[w].load(std::memory_order_relaxed);
      if (bits != 0) data_[w].fetch_or(bits, std::memory_order_relaxed);
    }
  }

 private:
  static std::uint64_t bit(std::uint64_t i) { return 1ull << (i & 63); }
  void check_index(std::uint64_t i) const { FB_CHECK_LT(i, bits_); }

  std::uint64_t bits_;
  std::uint64_t words_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> data_;
};

}  // namespace fbfs
