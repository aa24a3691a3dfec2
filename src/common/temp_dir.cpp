#include "common/temp_dir.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>

#include <stdlib.h>
#include <unistd.h>

#include "common/check.hpp"

namespace fbfs {

TempDir::TempDir(const std::string& prefix) {
  // mkdtemp creates a directory that did not exist: a process reusing
  // the pid of one that died before removing its directories never
  // starts inside them. The pid and counter only say whose it is.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1);
  std::string name = (std::filesystem::temp_directory_path() /
                      (prefix + "-" + std::to_string(::getpid()) + "-" +
                       std::to_string(id) + "-XXXXXX"))
                         .string();
  FB_CHECK_MSG(::mkdtemp(name.data()) != nullptr,
               "cannot create temp dir " << name << ": "
                                         << std::strerror(errno));
  path_ = name;
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  std::error_code ec;  // best-effort; never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

}  // namespace fbfs
