#include "metrics/collector.hpp"

#include "common/log.hpp"

namespace fbfs::metrics {

CollectorOptions collector_options_from_config(const Config& config) {
  CollectorOptions opts;
  opts.histogram_shards = static_cast<std::size_t>(
      config.get_u64_or("metrics.histogram_shards", opts.histogram_shards));
  opts.sampler_interval_seconds = config.get_f64_or(
      "metrics.sampler_interval", opts.sampler_interval_seconds);
  return opts;
}

Collector::Collector(CollectorOptions options) : options_(options) {
  phases_.reserve(kNumPhases);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    phases_.push_back(
        std::make_unique<ShardedHistogram>(options_.histogram_shards));
  }
  if (options_.sampler_interval_seconds > 0.0) {
    sampler_ = std::thread([this] { sampler_loop(); });
  }
}

Collector::~Collector() {
  if (sampler_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mutex_);
      sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    sampler_.join();
  }
}

void Collector::end_iteration(const IterationStats& stats) {
  IterationMetrics row;
  row.stats = stats;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    row.phase[p] = phases_[p]->drain();
  }
  run_.iterations.push_back(std::move(row));
  live_.add_iteration();
  run_.ops = live_.snapshot();
  run_.wall_seconds = run_clock_.seconds();
}

void Collector::sampler_loop() {
  LiveOpsSnapshot last = live_.snapshot();
  Stopwatch tick;
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (true) {
    sampler_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.sampler_interval_seconds),
        [this] { return sampler_stop_; });
    if (sampler_stop_) return;
    const LiveOpsSnapshot now = live_.snapshot();
    const double dt = tick.seconds();
    tick.restart();
    if (dt <= 0.0) continue;
    const auto rate = [dt](std::uint64_t delta) {
      return static_cast<std::uint64_t>(static_cast<double>(delta) / dt);
    };
    FB_LOG_INFO << "metrics: iter " << now.iterations << ", "
                << rate(now.edges_scanned - last.edges_scanned)
                << " edges/s, "
                << rate(now.updates_emitted - last.updates_emitted)
                << " updates/s ("
                << rate(now.updates_sieved - last.updates_sieved)
                << " sieved/s), "
                << (now.partitions_scattered - last.partitions_scattered)
                << " partitions scattered, "
                << (now.partitions_skipped - last.partitions_skipped)
                << " skipped";
    last = now;
  }
}

}  // namespace fbfs::metrics
