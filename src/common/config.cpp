#include "common/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace fbfs {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

}  // namespace

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  FB_CHECK_MSG(in.good(), "cannot open config file: " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_string(buffer.str());
}

Config Config::parse_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // '#' starts a comment, whole-line or trailing.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    FB_CHECK_MSG(eq != std::string::npos,
                 "config line " << line_no << " has no '=': " << stripped);
    const std::string key = trim(stripped.substr(0, eq));
    FB_CHECK_MSG(!key.empty(), "config line " << line_no << " has empty key");
    cfg.values_[key] = trim(stripped.substr(eq + 1));
  }
  return cfg;
}

std::string Config::to_string() const {
  std::ostringstream out;
  for (const auto& [key, value] : values_) {
    out << key << " = " << value << "\n";
  }
  return out.str();
}

void Config::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    FB_CHECK_MSG(out.good(), "cannot write config file: " << tmp);
    out << to_string();
    out.flush();
    FB_CHECK_MSG(out.good(), "short write to config file: " << tmp);
  }
  FB_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "rename " << tmp << " -> " << path << ": "
                         << std::strerror(errno));
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::optional<std::string> Config::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_str(const std::string& key) const {
  const auto value = find(key);
  FB_CHECK_MSG(value.has_value(), "missing config key: " << key);
  return *value;
}

std::string Config::get_str_or(const std::string& key,
                               const std::string& fallback) const {
  return find(key).value_or(fallback);
}

std::uint64_t Config::get_u64(const std::string& key) const {
  const std::string value = get_str(key);
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 0);
  FB_CHECK_MSG(errno == 0 && end != value.c_str() && *end == '\0' &&
                   value[0] != '-',
               "config key " << key << " is not a u64: " << value);
  return parsed;
}

std::uint64_t Config::get_u64_or(const std::string& key,
                                 std::uint64_t fallback) const {
  return has(key) ? get_u64(key) : fallback;
}

std::uint32_t Config::get_u32_or(const std::string& key,
                                 std::uint32_t fallback) const {
  if (!has(key)) return fallback;
  const std::uint64_t value = get_u64(key);
  FB_CHECK_MSG(value <= std::numeric_limits<std::uint32_t>::max(),
               "config key " << key << " does not fit in 32 bits: " << value);
  return static_cast<std::uint32_t>(value);
}

double Config::get_f64(const std::string& key) const {
  const std::string value = get_str(key);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  FB_CHECK_MSG(errno == 0 && end != value.c_str() && *end == '\0',
               "config key " << key << " is not a number: " << value);
  return parsed;
}

double Config::get_f64_or(const std::string& key, double fallback) const {
  return has(key) ? get_f64(key) : fallback;
}

bool Config::get_bool(const std::string& key) const {
  const std::string value = get_str(key);
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  FB_CHECK_MSG(false, "config key " << key << " is not a bool: " << value);
  return false;
}

bool Config::get_bool_or(const std::string& key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

namespace {

std::string join(std::initializer_list<std::string_view> names) {
  std::string out;
  for (const std::string_view name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::string Config::get_enum(
    const std::string& key,
    std::initializer_list<std::string_view> allowed) const {
  const std::string value = get_str(key);
  for (const std::string_view name : allowed) {
    if (value == name) return value;
  }
  FB_CHECK_MSG(false, "config key " << key << " has invalid value '" << value
                                    << "'; valid values: " << join(allowed));
  return value;
}

std::string Config::get_enum_or(std::string const& key,
                                std::initializer_list<std::string_view> allowed,
                                std::string_view fallback) const {
  if (has(key)) return get_enum(key, allowed);
  for (const std::string_view name : allowed) {
    if (fallback == name) return std::string(fallback);
  }
  FB_CHECK_MSG(false, "fallback for config key "
                          << key << " is invalid: '" << fallback
                          << "'; valid values: " << join(allowed));
  return std::string(fallback);
}

std::uint64_t Config::get_bytes(const std::string& key) const {
  const std::string value = get_str(key);
  errno = 0;
  char* end = nullptr;
  const unsigned long long count = std::strtoull(value.c_str(), &end, 10);
  const bool number_ok =
      errno == 0 && end != value.c_str() && value[0] != '-';
  std::string suffix(end == nullptr ? "" : end);
  suffix = trim(suffix);
  for (char& c : suffix) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  std::uint64_t multiplier = 0;
  if (suffix.empty() || suffix == "b") {
    multiplier = 1;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    multiplier = 1024ull;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    multiplier = 1024ull * 1024;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    multiplier = 1024ull * 1024 * 1024;
  }
  FB_CHECK_MSG(number_ok && multiplier != 0,
               "config key " << key << " is not a byte size: '" << value
                             << "'; expected <unsigned integer> with an "
                                "optional suffix B, K/KB/KiB, M/MB/MiB, "
                                "G/GB/GiB (1024-based, case-insensitive)");
  const std::uint64_t bytes = count * multiplier;
  FB_CHECK_MSG(count == 0 || bytes / multiplier == count,
               "config key " << key << " overflows a u64 byte size: '"
                             << value << "'");
  return bytes;
}

std::uint64_t Config::get_bytes_or(const std::string& key,
                                   std::uint64_t fallback) const {
  return has(key) ? get_bytes(key) : fallback;
}

std::uint32_t Config::get_threads(const std::string& key) const {
  const std::uint64_t requested = get_u64(key);
  FB_CHECK_MSG(requested <= kMaxEngineThreads,
               "config key " << key << " is not a sane thread count: "
                             << requested << " (max " << kMaxEngineThreads
                             << ", 0 = hardware concurrency)");
  return resolve_thread_count(static_cast<std::uint32_t>(requested));
}

std::uint32_t Config::get_threads_or(const std::string& key,
                                     std::uint32_t fallback) const {
  if (has(key)) return get_threads(key);
  return resolve_thread_count(fallback);
}

void Config::set_str(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_u64(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
}

void Config::set_f64(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  values_[key] = buf;
}

void Config::set_bool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

}  // namespace fbfs
