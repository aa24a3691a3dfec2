// Microbenchmarks for the update-stream primitives behind PR 7's write
// cut: varint encode/decode, whole-stream codec encode + decode
// throughput per format (with the exact compression ratios), and the
// staging-buffer sieve's hit rate / throughput on duplicate-heavy
// update streams, CHECKed against a hash-map reference sieve. Plus the
// set-up sort that orders partition and transposed files
// (graph::stable_sort_edges), CHECKed against std::stable_sort.
//
// Standalone (no google-benchmark): wall-clocked loops over synthetic
// update streams shaped like the engines' real traffic — a dense
// BFS-style round (identical payloads, heavy duplicates), a power-law
// round (distinct payloads), and a sparse round. Results land in
// BENCH_pr7_micro.json (--out=FILE); --quick shrinks the streams.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "json_writer.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/temp_dir.hpp"
#include "core/scatter.hpp"
#include "graph/partitioner.hpp"
#include "graph/program.hpp"
#include "metrics/table.hpp"
#include "storage/codec.hpp"

namespace {

using namespace fbfs;  // NOLINT(build/namespaces)
using bench::Json;
using io::codec::EncodeOptions;
using io::codec::Format;
using io::codec::Policy;
using Update = graph::BfsProgram::Update;

double mib_per_sec(std::uint64_t bytes, double seconds) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}

/// A scatter round's update stream for one destination partition.
struct Shape {
  const char* name = "";
  std::vector<Update> updates;
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  bool identical_payloads = false;  // bitmap-eligible (BFS level-r rounds)
};

std::vector<Shape> make_shapes(std::uint64_t n) {
  std::vector<Shape> shapes;
  {
    // Dense BFS middle round: every update carries the same level and
    // most destinations repeat — the bitmap format's home turf.
    Shape s;
    s.name = "dense_bfs";
    s.range_end = n / 4;
    s.identical_payloads = true;
    Rng rng(11);
    s.updates.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.updates.push_back(
          {static_cast<graph::VertexId>(rng.next_below(s.range_end)), 7});
    }
    shapes.push_back(std::move(s));
  }
  {
    // Power-law round with distinct payloads: duplicates remain but the
    // payloads differ, so varint is the only compressive option.
    Shape s;
    s.name = "powerlaw";
    s.range_end = n / 4;
    Rng rng(13);
    ZipfSampler zipf(s.range_end, 1.05);
    s.updates.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.updates.push_back({static_cast<graph::VertexId>(zipf.sample(rng)),
                           static_cast<std::uint32_t>(rng.next_below(64))});
    }
    shapes.push_back(std::move(s));
  }
  {
    // Sparse tail round: few updates spread over a wide range — the
    // shape where raw should win and the cost model must not regress.
    Shape s;
    s.name = "sparse";
    s.range_end = n * 64;
    s.identical_payloads = true;
    Rng rng(17);
    s.updates.reserve(n / 16);
    for (std::uint64_t i = 0; i < n / 16; ++i) {
      s.updates.push_back(
          {static_cast<graph::VertexId>(rng.next_below(s.range_end)), 3});
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

void bench_varint(Json& json, std::uint64_t n) {
  Rng rng(5);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) {
    // Mixed widths: the shift distributes sizes 1..8 bytes.
    v = rng.next_u64() >> (rng.next_below(57));
  }
  std::vector<std::byte> buf(n * 10);
  Stopwatch clock;
  std::size_t bytes = 0;
  for (const std::uint64_t v : values) {
    bytes += io::codec::put_varint(v, buf.data() + bytes);
  }
  const double enc_s = clock.seconds();
  clock.restart();
  std::size_t pos = 0;
  std::uint64_t sum = 0;
  const std::span<const std::byte> view(buf.data(), bytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += io::codec::get_varint(view, pos);
  }
  const double dec_s = clock.seconds();
  FB_CHECK_EQ(pos, bytes);
  FB_CHECK_GT(sum, 0u);

  metrics::Table table({"op", "values", "bytes", "sec", "Mops/s"});
  table.add_row({"put_varint", metrics::Table::count(n),
                 metrics::Table::bytes(bytes), metrics::Table::seconds(enc_s),
                 metrics::Table::count(static_cast<std::uint64_t>(
                     static_cast<double>(n) / 1e6 / enc_s))});
  table.add_row({"get_varint", metrics::Table::count(n),
                 metrics::Table::bytes(bytes), metrics::Table::seconds(dec_s),
                 metrics::Table::count(static_cast<std::uint64_t>(
                     static_cast<double>(n) / 1e6 / dec_s))});
  table.print();
  json.open("varint");
  json.integer("values", n);
  json.integer("encoded_bytes", bytes);
  json.number("encode_mops", static_cast<double>(n) / 1e6 / enc_s);
  json.number("decode_mops", static_cast<double>(n) / 1e6 / dec_s);
  json.close();
}

void bench_codec(Json& json, io::Device& dev, const std::vector<Shape>& shapes,
                 std::uint32_t rounds) {
  metrics::Table table({"stream", "codec", "format", "in", "out", "ratio",
                        "enc MiB/s", "dec MiB/s"});
  json.open("codec");
  for (const Shape& shape : shapes) {
    const std::uint64_t in_bytes = shape.updates.size() * sizeof(Update);
    json.open(shape.name);
    json.integer("updates", shape.updates.size());
    json.integer("raw_bytes", in_bytes);
    for (const Policy policy :
         {Policy::kRaw, Policy::kBitmap, Policy::kVarint, Policy::kAuto}) {
      const EncodeOptions opts{.policy = policy,
                               .allow_bitmap = shape.identical_payloads,
                               .range_begin = shape.range_begin,
                               .range_end = shape.range_end};
      // Encode throughput (in-memory, the scatter-close hot path).
      Stopwatch clock;
      io::codec::EncodedBlob blob;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        blob = io::codec::encode_records<Update>(shape.updates, opts);
      }
      const double enc_s = clock.seconds() / rounds;

      // Decode throughput through the real reader stack.
      const std::string file = std::string(shape.name) + ".upd";
      {
        io::codec::CodecWriter<Update> writer(dev, file, 1 << 20, opts);
        writer.append_batch(shape.updates);
        writer.close();
      }
      clock.restart();
      std::uint64_t decoded = 0;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        auto reader = io::codec::open_reader<Update>(
            dev, file, {.buffer_bytes = 1 << 20});
        for (auto batch = reader->next_batch(); !batch.empty();
             batch = reader->next_batch()) {
          decoded += batch.size();
        }
      }
      const double dec_s = clock.seconds() / rounds;
      const std::uint64_t out_records = decoded / rounds;
      const double ratio = static_cast<double>(blob.bytes.size()) /
                           static_cast<double>(in_bytes);

      table.add_row(
          {shape.name, io::codec::to_string(policy),
           io::codec::to_string(blob.format),
           metrics::Table::bytes(in_bytes),
           metrics::Table::bytes(blob.bytes.size()),
           metrics::Table::percent(ratio),
           metrics::Table::count(
               static_cast<std::uint64_t>(mib_per_sec(in_bytes, enc_s))),
           metrics::Table::count(static_cast<std::uint64_t>(
               mib_per_sec(out_records * sizeof(Update), dec_s)))});

      json.open(io::codec::to_string(policy));
      json.text("format", io::codec::to_string(blob.format));
      json.integer("encoded_bytes", blob.bytes.size());
      json.integer("decoded_records", out_records);
      json.number("bytes_ratio", ratio);
      json.number("encode_mib_s", mib_per_sec(in_bytes, enc_s));
      json.number("decode_mib_s",
                  mib_per_sec(out_records * sizeof(Update), dec_s));
      json.close();
    }
    json.close();
  }
  json.close();
  table.print();
}

/// What a sieve hands the shuffle: every window's staged records in
/// order, per destination partition, and the updates it dropped.
struct SieveOutput {
  std::vector<std::vector<Update>> staged;
  std::uint64_t sieved = 0;
};

/// The reference sieve: the staging sieve's rule (first sighting keeps
/// the record and its position, dominated or merged later ones drop)
/// over a std::unordered_map per window.
SieveOutput reference_sieve(const graph::BfsProgram& program,
                            const graph::PartitionLayout& layout,
                            const std::vector<Update>& updates,
                            std::size_t window_records) {
  SieveOutput out;
  out.staged.resize(layout.num_partitions());
  std::vector<std::vector<Update>> buckets(layout.num_partitions());
  std::unordered_map<graph::VertexId, std::uint32_t> window;
  const auto retire = [&] {
    for (std::uint32_t q = 0; q < buckets.size(); ++q) {
      out.staged[q].insert(out.staged[q].end(), buckets[q].begin(),
                           buckets[q].end());
      buckets[q].clear();
    }
    window.clear();
  };
  std::size_t in_window = 0;
  for (const Update& u : updates) {
    std::vector<Update>& bucket = buckets[layout.owner(u.dst)];
    const auto [it, inserted] = window.try_emplace(
        u.dst, static_cast<std::uint32_t>(bucket.size()));
    if (inserted) {
      bucket.push_back(u);
    } else {
      Update& champion = bucket[it->second];
      if (!program.dominates(champion, u)) program.sieve_merge(champion, u);
      ++out.sieved;
    }
    if (++in_window == window_records) {
      retire();
      in_window = 0;
    }
  }
  retire();
  return out;
}

void bench_sieve(Json& json, const std::vector<Shape>& shapes,
                 std::size_t window_records) {
  // The engines' exact staging path: ScatterStage with a window from
  // SieveWindows, retired every `window_records` staged updates (the
  // staging-buffer lifetime scatter uses) by clear_buckets, as flush
  // does. The clock stops while the retired records are copied out for
  // the check against the reference sieve.
  const graph::BfsProgram program{};
  metrics::Table table({"stream", "window", "updates", "sieved", "hit rate",
                        "Mupd/s"});
  json.open("sieve");
  for (const Shape& shape : shapes) {
    const graph::PartitionLayout layout(shape.range_end, 4);
    core::detail::SieveWindows windows(layout.num_vertices());
    core::detail::ScatterStage<graph::BfsProgram> stage(program, layout,
                                                        &windows);
    SieveOutput got;
    got.staged.resize(layout.num_partitions());
    double s = 0.0;
    for (std::size_t begin = 0; begin < shape.updates.size();
         begin += window_records) {
      const std::size_t end =
          std::min(shape.updates.size(), begin + window_records);
      Stopwatch clock;
      for (std::size_t i = begin; i < end; ++i) stage.stage(shape.updates[i]);
      s += clock.seconds();
      for (std::uint32_t q = 0; q < stage.buckets.size(); ++q) {
        got.staged[q].insert(got.staged[q].end(), stage.buckets[q].begin(),
                             stage.buckets[q].end());
      }
      clock.restart();
      stage.clear_buckets();
      s += clock.seconds();
    }
    const std::uint64_t emitted = stage.counts.emitted;
    got.sieved = stage.counts.sieved;

    const SieveOutput want =
        reference_sieve(program, layout, shape.updates, window_records);
    FB_CHECK_MSG(got.sieved == want.sieved,
                 shape.name << ": the sieve dropped " << got.sieved
                            << " updates, the reference " << want.sieved);
    for (std::uint32_t q = 0; q < layout.num_partitions(); ++q) {
      FB_CHECK_MSG(got.staged[q].size() == want.staged[q].size() &&
                       std::memcmp(got.staged[q].data(),
                                   want.staged[q].data(),
                                   got.staged[q].size() * sizeof(Update)) == 0,
                   shape.name << ": partition " << q
                              << "'s staged records differ from the "
                                 "reference sieve's");
    }

    const double hit_rate =
        static_cast<double>(got.sieved) / static_cast<double>(emitted);
    table.add_row({shape.name, metrics::Table::count(window_records),
                   metrics::Table::count(emitted),
                   metrics::Table::count(got.sieved),
                   metrics::Table::percent(hit_rate),
                   metrics::Table::count(static_cast<std::uint64_t>(
                       static_cast<double>(emitted) / 1e6 / s))});
    json.open(shape.name);
    json.integer("window_records", window_records);
    json.integer("updates", emitted);
    json.integer("sieved", got.sieved);
    json.number("hit_rate", hit_rate);
    json.number("mupd_per_s", static_cast<double>(emitted) / 1e6 / s);
    json.close();
  }
  json.close();
  table.print();
}

void bench_edge_sort(Json& json, const std::vector<Shape>& shapes,
                     std::uint32_t rounds) {
  // Each shape's destinations as the keys of an edge array (the source
  // records the input position, so any instability shows), sorted the
  // way set-up sorts a transposed file, against std::stable_sort.
  metrics::Table table({"stream", "edges", "key range", "sort MiB/s",
                        "std::stable_sort MiB/s"});
  json.open("edge_sort");
  for (const Shape& shape : shapes) {
    std::vector<graph::Edge> input;
    input.reserve(shape.updates.size());
    for (std::size_t i = 0; i < shape.updates.size(); ++i) {
      input.push_back({static_cast<graph::VertexId>(i), shape.updates[i].dst});
    }
    const auto begin = static_cast<graph::VertexId>(shape.range_begin);
    const std::uint64_t bytes = input.size() * sizeof(graph::Edge);
    double sort_s = 1e30;
    double std_s = 1e30;
    std::vector<graph::Edge> got;
    std::vector<graph::Edge> want;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      got = input;
      Stopwatch clock;
      graph::stable_sort_edges(got, graph::EdgeKey::kDst, begin,
                               shape.range_end);
      sort_s = std::min(sort_s, clock.seconds());
      want = input;
      clock.restart();
      std::stable_sort(want.begin(), want.end(),
                       [](const graph::Edge& a, const graph::Edge& b) {
                         return a.dst < b.dst;
                       });
      std_s = std::min(std_s, clock.seconds());
    }
    FB_CHECK_MSG(got == want, shape.name << ": stable_sort_edges differs "
                                            "from std::stable_sort");
    table.add_row({shape.name, metrics::Table::count(input.size()),
                   metrics::Table::count(shape.range_end - shape.range_begin),
                   metrics::Table::count(static_cast<std::uint64_t>(
                       mib_per_sec(bytes, sort_s))),
                   metrics::Table::count(static_cast<std::uint64_t>(
                       mib_per_sec(bytes, std_s)))});
    json.open(shape.name);
    json.integer("edges", input.size());
    json.integer("key_range", shape.range_end - shape.range_begin);
    json.number("sort_mib_s", mib_per_sec(bytes, sort_s));
    json.number("std_stable_sort_mib_s", mib_per_sec(bytes, std_s));
    json.close();
  }
  json.close();
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_pr7_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: micro_primitives [--quick] [--out=FILE]\n";
      return 2;
    }
  }
  init_log_level_from_env();
  metrics::print_experiment_header(
      "Update-stream primitive microbenches",
      "varint + codec encode/decode throughput, the staging-sieve hit "
      "rate on engine-shaped update streams, and the set-up edge sort");

  const std::uint64_t n = quick ? (1ull << 18) : (1ull << 22);
  const std::uint32_t rounds = quick ? 3 : 5;
  TempDir dir("micro_primitives");
  io::Device dev(dir.str(), io::DeviceModel::unthrottled());
  const std::vector<Shape> shapes = make_shapes(n);

  Json json;
  json.text("bench", "micro_primitives");
  json.text("mode", quick ? "quick" : "full");
  bench_varint(json, n);
  bench_codec(json, dev, shapes, rounds);
  bench_sieve(json, shapes, /*window_records=*/1 << 17);
  bench_edge_sort(json, shapes, rounds);

  std::ofstream out(out_path);
  FB_CHECK_MSG(out.good(), "cannot write " << out_path);
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
