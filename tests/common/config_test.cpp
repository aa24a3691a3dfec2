#include "common/config.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/parallel.hpp"
#include "common/temp_dir.hpp"

namespace fbfs {
namespace {

TEST(Config, ParsesKeyValueLinesWithCommentsAndWhitespace) {
  const Config cfg = Config::parse_string(
      "# a comment\n"
      "\n"
      "  edges = 1024  \n"
      "ratio=0.25\n"
      "name =  rmat18 with spaces \n"
      "   # indented comment\n"
      "partitions = 16 # trailing comment\n"
      "flag = true\n");
  EXPECT_EQ(cfg.size(), 5u);
  EXPECT_EQ(cfg.get_u64("edges"), 1024u);
  EXPECT_EQ(cfg.get_u64("partitions"), 16u);
  EXPECT_DOUBLE_EQ(cfg.get_f64("ratio"), 0.25);
  EXPECT_EQ(cfg.get_str("name"), "rmat18 with spaces");
  EXPECT_TRUE(cfg.get_bool("flag"));
  EXPECT_TRUE(cfg.has("edges"));
  EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, LaterAssignmentWins) {
  const Config cfg = Config::parse_string("k = 1\nk = 2\n");
  EXPECT_EQ(cfg.get_u64("k"), 2u);
}

TEST(Config, FallbacksOnlyApplyWhenAbsent) {
  Config cfg;
  cfg.set_u64("present", 7);
  EXPECT_EQ(cfg.get_u64_or("present", 99), 7u);
  EXPECT_EQ(cfg.get_u64_or("absent", 99), 99u);
  EXPECT_DOUBLE_EQ(cfg.get_f64_or("absent", 0.5), 0.5);
  EXPECT_EQ(cfg.get_str_or("absent", "x"), "x");
  EXPECT_TRUE(cfg.get_bool_or("absent", true));
}

TEST(Config, FileRoundTripPreservesEverything) {
  TempDir dir("config");
  const std::string path = dir.str() + "/run.cache";

  Config cfg;
  cfg.set_u64("rmat18.fastbfs.bytes_read", 123456789012ull);
  cfg.set_f64("rmat18.fastbfs.seconds", 1.5e-3);
  cfg.set_f64("precise", 0.1234567890123456789);
  cfg.set_str("label", "two disks");
  cfg.set_bool("cached", true);
  cfg.write_file(path);

  const Config back = Config::parse_file(path);
  EXPECT_EQ(back.size(), cfg.size());
  EXPECT_EQ(back.get_u64("rmat18.fastbfs.bytes_read"), 123456789012ull);
  EXPECT_DOUBLE_EQ(back.get_f64("rmat18.fastbfs.seconds"), 1.5e-3);
  EXPECT_DOUBLE_EQ(back.get_f64("precise"), 0.1234567890123456789);
  EXPECT_EQ(back.get_str("label"), "two disks");
  EXPECT_TRUE(back.get_bool("cached"));
  // Atomic write: no .tmp remnant.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Config, KeysAreSorted) {
  Config cfg;
  cfg.set_u64("b", 1);
  cfg.set_u64("a", 2);
  cfg.set_u64("c", 3);
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(keys[2], "c");
}

TEST(ConfigDeath, MissingKeyAndMalformedValueAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg;
  cfg.set_str("text", "not-a-number");
  EXPECT_DEATH(cfg.get_u64("absent"), "missing config key: absent");
  EXPECT_DEATH(cfg.get_u64("text"), "not a u64");
  EXPECT_DEATH(Config::parse_string("no equals sign"), "has no '='");
}

TEST(Config, EnumsAcceptOnlyListedValues) {
  const Config cfg = Config::parse_string(
      "core.direction = auto\n"
      "mode = fast\n");
  EXPECT_EQ(cfg.get_enum("core.direction", {"topdown", "auto"}), "auto");
  EXPECT_EQ(cfg.get_enum_or("absent", {"topdown", "auto"}, "topdown"),
            "topdown");
}

TEST(ConfigDeath, EnumErrorsListTheValidValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Config cfg = Config::parse_string("mode = fast\n");
  EXPECT_DEATH(cfg.get_enum("mode", {"slow", "steady"}),
               "invalid value 'fast'; valid values: slow, steady");
  EXPECT_DEATH(cfg.get_enum("absent", {"a", "b"}), "missing config key");
  // A bad fallback is a programming error, not a config error.
  EXPECT_DEATH(cfg.get_enum_or("absent", {"a", "b"}, "c"),
               "fallback .* is invalid");
}

TEST(Config, ByteSizesAcceptBinarySuffixes) {
  const Config cfg = Config::parse_string(
      "plain = 4096\n"
      "kib = 64K\n"
      "mib = 4MiB\n"
      "gib = 2 GB\n"
      "zero = 0\n");
  EXPECT_EQ(cfg.get_bytes("plain"), 4096u);
  EXPECT_EQ(cfg.get_bytes("kib"), 64u * 1024);
  EXPECT_EQ(cfg.get_bytes("mib"), 4u * 1024 * 1024);
  EXPECT_EQ(cfg.get_bytes("gib"), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(cfg.get_bytes("zero"), 0u);
  EXPECT_EQ(cfg.get_bytes_or("absent", 1 << 20), 1u << 20);
}

TEST(ConfigDeath, ByteSizeErrorsListTheValidSuffixes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Config cfg = Config::parse_string(
      "bad_unit = 4 MiBs\n"
      "negative = -1K\n"
      "no_number = MiB\n");
  EXPECT_DEATH(cfg.get_bytes("bad_unit"), "optional suffix B, K/KB/KiB");
  EXPECT_DEATH(cfg.get_bytes("negative"), "not a byte size");
  EXPECT_DEATH(cfg.get_bytes("no_number"), "not a byte size");
}

TEST(Config, ThreadCountsResolveToConcreteWorkers) {
  const Config cfg = Config::parse_string(
      "explicit = 4\n"
      "auto = 0\n");
  EXPECT_EQ(cfg.get_threads("explicit"), 4u);
  // 0 = hardware concurrency, resolved to at least one worker.
  EXPECT_GE(cfg.get_threads("auto"), 1u);
  EXPECT_EQ(cfg.get_threads("auto"), resolve_thread_count(0));
  EXPECT_EQ(cfg.get_threads_or("absent", 3), 3u);
  EXPECT_GE(cfg.get_threads_or("absent", 0), 1u);  // fallback resolves too
  EXPECT_EQ(cfg.get_threads("explicit"), cfg.get_threads_or("explicit", 9));
}

TEST(ConfigDeath, ThreadCountNonsenseIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Config cfg = Config::parse_string(
      "huge = 100000\n"
      "text = many\n"
      "negative = -2\n");
  EXPECT_DEATH(cfg.get_threads("huge"), "not a sane thread count");
  EXPECT_DEATH(cfg.get_threads("text"), "not a u64");
  EXPECT_DEATH(cfg.get_threads("negative"), "not a u64");
  EXPECT_DEATH(cfg.get_threads("absent"), "missing config key");
}

}  // namespace
}  // namespace fbfs
