// Key-value configuration files (the paper's §III workflow: engines and
// tools are driven by small text configs) and the bench result caches.
//
// File format: one `key = value` per line; blank lines and lines whose
// first non-space character is '#' are ignored; keys and values are
// whitespace-trimmed. Keys are unique; later assignments win.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fbfs {

class Config {
 public:
  Config() = default;

  /// Aborts (FB_CHECK) if the file cannot be read or a line is malformed.
  static Config parse_file(const std::string& path);
  static Config parse_string(const std::string& text);

  /// Writes keys sorted, atomically (tmp file + rename).
  void write_file(const std::string& path) const;
  std::string to_string() const;

  bool has(const std::string& key) const;
  std::vector<std::string> keys() const;
  std::size_t size() const { return values_.size(); }

  /// get_* abort on a missing key or an unparseable value; the *_or
  /// variants return `fallback` when the key is absent (but still abort
  /// on a present-but-malformed value).
  std::string get_str(const std::string& key) const;
  std::string get_str_or(const std::string& key,
                         const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& key) const;
  std::uint64_t get_u64_or(const std::string& key,
                           std::uint64_t fallback) const;
  /// A u64 that must fit in 32 bits (iteration caps, round numbers,
  /// partition counts): aborts naming the key on a wider value instead
  /// of truncating it.
  std::uint32_t get_u32_or(const std::string& key,
                           std::uint32_t fallback) const;
  double get_f64(const std::string& key) const;
  double get_f64_or(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  /// Value restricted to a closed set of names (engine mode keys like
  /// `core.direction = auto`). Aborts with a message listing the valid
  /// values when the value (or, for get_enum_or, the fallback) is not
  /// one of `allowed`.
  std::string get_enum(const std::string& key,
                       std::initializer_list<std::string_view> allowed) const;
  std::string get_enum_or(const std::string& key,
                          std::initializer_list<std::string_view> allowed,
                          std::string_view fallback) const;

  /// Byte size: an unsigned integer with an optional binary-multiple
  /// suffix — B, K/KB/KiB, M/MB/MiB, G/GB/GiB, all 1024-based,
  /// case-insensitive, optionally space-separated ("4M", "64 KiB",
  /// "1048576"). Aborts with a message listing the valid suffixes on
  /// anything else.
  std::uint64_t get_bytes(const std::string& key) const;
  std::uint64_t get_bytes_or(const std::string& key,
                             std::uint64_t fallback) const;

  /// Worker-thread count (engine keys like `engine.num_threads`): an
  /// unsigned integer where 0 means "one per hardware thread". The
  /// returned value is always resolved to a concrete count >= 1. Aborts
  /// on values above kMaxEngineThreads (512) — that is a typo, not a
  /// machine. get_threads_or resolves the fallback through the same
  /// rules.
  std::uint32_t get_threads(const std::string& key) const;
  std::uint32_t get_threads_or(const std::string& key,
                               std::uint32_t fallback) const;

  void set_str(const std::string& key, const std::string& value);
  void set_u64(const std::string& key, std::uint64_t value);
  void set_f64(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);

  void erase(const std::string& key) { values_.erase(key); }

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace fbfs
