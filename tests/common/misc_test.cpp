// units, stopwatch, temp_dir, log level plumbing, CHECK macros.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "common/units.hpp"

namespace fbfs {
namespace {

TEST(Units, ConstantsAndFormatting) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4 * kKiB), "4.0 KiB");
  EXPECT_EQ(format_bytes(32 * kMiB + kMiB / 2), "32.5 MiB");
  EXPECT_EQ(format_bytes(2 * kGiB), "2.00 GiB");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(sw.seconds(), 0.010);
  EXPECT_GE(sw.elapsed_ns(), 10'000'000u);
  sw.restart();
  EXPECT_LT(sw.seconds(), 0.010);
}

TEST(TempDir, CreatesUniqueDirectoryAndRemovesIt) {
  std::filesystem::path kept;
  {
    TempDir a("misc");
    TempDir b("misc");
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(std::filesystem::is_directory(a.path()));
    // Contents go too.
    std::filesystem::create_directories(a.path() / "sub");
    kept = a.path();
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

TEST(TempDir, NeverAdoptsAnExistingDirectory) {
  // A dead process, such as an aborted death-test child, can leave its
  // directories behind under names a later process with the same pid
  // would pick. Learn those names from one TempDir, <prefix>-<pid>-<n>
  // for the next counters n, pre-create them with a sentinel inside,
  // and create that many TempDirs: none may start inside one.
  constexpr std::uint64_t kNext = 4;
  const std::string head = "adopt-" + std::to_string(::getpid()) + "-";
  std::uint64_t counter = 0;
  {
    const TempDir probe("adopt");
    const std::string name = probe.path().filename().string();
    ASSERT_EQ(name.rfind(head, 0), 0u) << name;
    counter = std::stoull(name.substr(head.size()));
  }
  const std::filesystem::path root = std::filesystem::temp_directory_path();
  std::vector<std::filesystem::path> planted;
  for (std::uint64_t i = 1; i <= kNext; ++i) {
    planted.push_back(root / (head + std::to_string(counter + i)));
    std::filesystem::create_directories(planted.back());
    std::ofstream(planted.back() / "sentinel") << "stale";
  }
  for (std::uint64_t i = 1; i <= kNext; ++i) {
    const TempDir dir("adopt");
    EXPECT_TRUE(std::filesystem::is_empty(dir.path())) << dir.str();
    EXPECT_FALSE(std::filesystem::exists(dir.path() / "sentinel"));
  }
  for (const std::filesystem::path& p : planted) {
    std::filesystem::remove_all(p);
  }
}

TEST(Log, ParsesLevels) {
  LogLevel level = LogLevel::info;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::debug);
  EXPECT_TRUE(parse_log_level("warn", level));
  EXPECT_EQ(level, LogLevel::warn);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::off);
  EXPECT_FALSE(parse_log_level("verbose", level));
  EXPECT_EQ(level, LogLevel::off);  // untouched on failure
}

TEST(Log, EnvControlsLevel) {
  const LogLevel before = log_level();
  ::setenv("FASTBFS_LOG", "error", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::error);
  EXPECT_FALSE(log_enabled(LogLevel::info));
  EXPECT_TRUE(log_enabled(LogLevel::error));

  // Unknown values leave the level alone.
  ::setenv("FASTBFS_LOG", "nonsense", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::error);

  ::unsetenv("FASTBFS_LOG");
  set_log_level(before);
}

TEST(Log, DisabledLevelsDoNotEvaluateOperands) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::error);
  int evaluations = 0;
  FB_LOG_DEBUG << "never " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
  set_log_level(before);
}

TEST(CheckDeath, MacrosAbortWithContext) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(FB_CHECK(1 == 2), "CHECK failed");
  EXPECT_DEATH(FB_CHECK_MSG(false, "ctx " << 42), "ctx 42");
  EXPECT_DEATH(FB_CHECK_EQ(3, 4), "3 vs 4");
  // Passing checks are silent.
  FB_CHECK(true);
  FB_CHECK_MSG(true, "unused");
  FB_CHECK_LE(1, 1);
}

}  // namespace
}  // namespace fbfs
