#include "engine/types.hpp"

#include "common/check.hpp"

namespace fbfs::engine {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kInmem:
      return "inmem";
    case Kind::kXstream:
      return "xstream";
    case Kind::kCore:
      return "core";
  }
  return "?";
}

Kind parse_kind(const std::string& name) {
  if (name == "inmem") return Kind::kInmem;
  if (name == "xstream") return Kind::kXstream;
  if (name == "core" || name == "fastbfs") return Kind::kCore;
  FB_CHECK_MSG(false, "unknown engine kind '" << name
                                              << "' (inmem | xstream | core)");
  return Kind::kInmem;
}

const char* to_string(Direction direction) {
  switch (direction) {
    case Direction::kTopDown:
      return "topdown";
    case Direction::kBottomUp:
      return "bottomup";
    case Direction::kAuto:
      return "auto";
  }
  return "?";
}

Direction parse_direction(const std::string& name) {
  if (name == "topdown") return Direction::kTopDown;
  if (name == "bottomup") return Direction::kBottomUp;
  if (name == "auto") return Direction::kAuto;
  FB_CHECK_MSG(false, "unknown direction '" << name
                                            << "' (topdown | bottomup | auto)");
  return Direction::kTopDown;
}

Options options_from_config(const Config& config) {
  Options opts;
  opts.reader = io::reader_options_from_config(config);
  opts.write_buffer_bytes = static_cast<std::size_t>(
      config.get_bytes_or("engine.write_buffer", opts.write_buffer_bytes));
  opts.max_iterations =
      config.get_u32_or("engine.max_iterations", opts.max_iterations);
  opts.num_threads = config.get_threads_or("engine.num_threads", 1);
  opts.memory_budget_bytes =
      config.get_bytes_or("engine.memory_budget", opts.memory_budget_bytes);
  const std::string update_codec = config.get_enum_or(
      "updates.codec", {"auto", "raw", "bitmap", "varint"},
      io::codec::to_string(opts.update_codec));
  opts.update_codec = io::codec::parse_policy(update_codec);
  opts.sieve_updates = config.get_bool_or("updates.sieve", opts.sieve_updates);
  // Stay files follow the update codec unless overridden.
  opts.stay_codec = io::codec::parse_policy(config.get_enum_or(
      "updates.stay_codec", {"auto", "raw", "bitmap", "varint"},
      update_codec));

  // ---- FastBFS trim and direction knobs.
  opts.trim = config.get_bool_or("core.trim", opts.trim);
  opts.trim_start_round =
      config.get_u32_or("core.trim_start_round", opts.trim_start_round);
  opts.trim_min_frontier_fraction = config.get_f64_or(
      "core.trim_min_frontier_fraction", opts.trim_min_frontier_fraction);
  opts.trim_min_dead_fraction = config.get_f64_or(
      "core.trim_min_dead_fraction", opts.trim_min_dead_fraction);
  opts.grace_timeout_seconds =
      config.get_f64_or("core.grace_timeout", opts.grace_timeout_seconds);
  opts.direction = parse_direction(config.get_enum_or(
      "core.direction", {"topdown", "bottomup", "auto"},
      to_string(opts.direction)));
  return opts;
}

std::uint32_t partition_count_from_config(const Config& config,
                                          std::uint32_t fallback) {
  return config.get_u32_or("engine.partition_count", fallback);
}

}  // namespace fbfs::engine
