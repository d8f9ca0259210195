// Resident vs streamed throughput on a skewed length distribution: the
// whole batch through Aligner::align in one call, against the same pairs
// pumped through StreamAligner at several chunk sizes. Streaming trades a
// bounded memory footprint (chunk x queue pairs resident instead of all of
// them) for chunk-granular scheduling; this harness reports what that
// costs — align time, gcups, host wall time — and exits non-zero unless the
// results stay bit-identical and every streamed run's peak residency stays
// within chunk x queue pairs.
//
//   $ ./stream_throughput --pairs=400 --quick
#include <cstdio>

#include "bench_common.hpp"
#include "core/stream_aligner.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

// Bimodal lengths (85% short reads, 15% kbp-scale tail) — the imbalance
// regime of dataset B' where chunk scheduling has to work for its living.
seq::PairBatch skewed_batch(std::size_t pairs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t i = 0; i < pairs; ++i) {
    std::size_t len = rng.bernoulli(0.15) ? 800 + rng.below(1200) : 40 + rng.below(120);
    std::vector<seq::BaseCode> q(len), r(len);
    for (auto& b : q) b = static_cast<seq::BaseCode>(rng.below(4));
    for (auto& b : r) b = static_cast<seq::BaseCode>(rng.below(4));
    batch.add(std::move(q), std::move(r));
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("stream_throughput",
                       "resident vs streamed alignment on a skewed length distribution");
  args.add_int("pairs", "pairs in the workload", 400);
  args.add_int("queue", "in-flight chunk budget", 4);
  args.add_string("kernel", "simulated kernel", "saloba");
  args.add_string("device", "simulated device preset", "gtx1650");
  args.add_flag("quick", "single chunk size (fast smoke run)");
  if (!args.parse(argc, argv)) return 1;

  const auto pairs = static_cast<std::size_t>(args.get_int("pairs"));
  auto batch = skewed_batch(pairs, 21);

  core::AlignerOptions opts;
  opts.backend = core::Backend::kSimulated;
  opts.kernel = args.get_string("kernel");
  opts.device = args.get_string("device");

  // Resident baseline: everything in memory, one scheduler call.
  util::Timer timer;
  auto resident = core::Aligner(opts).align(batch);
  double resident_wall = timer.millis();

  util::Table table({"mode", "chunk", "align ms", "gcups", "wall ms", "peak pairs",
                     "identical"});
  table.add_row({"resident", "-", util::Table::ms(resident.time_ms),
                 util::Table::num(resident.gcups), util::Table::ms(resident_wall),
                 std::to_string(batch.size()), "-"});

  std::vector<std::size_t> chunk_sizes{32, 64, 128};
  if (args.get_flag("quick")) chunk_sizes = {64};

  const auto queue = static_cast<std::size_t>(args.get_int("queue"));
  int failures = 0;
  for (std::size_t chunk : chunk_sizes) {
    core::StreamOptions stream;
    stream.chunk_pairs = chunk;
    stream.queue_capacity = queue;
    core::StreamAligner streamer(opts, stream);

    timer.reset();
    core::ResidentChunkSource source(batch, chunk);
    std::size_t identical = 0, cursor = 0;
    auto stats = streamer.run(
        source, [&](std::size_t, std::size_t first_pair, core::AlignOutput&& out) {
          for (std::size_t i = 0; i < out.results.size(); ++i) {
            identical += out.results[i] == resident.results[first_pair + i] ? 1u : 0u;
          }
          cursor = first_pair + out.results.size();
        });
    double wall = timer.millis();
    bool ok = identical == batch.size() && cursor == batch.size();
    failures += ok ? 0 : 1;
    if (stats.peak_resident_pairs > chunk * queue) {
      std::printf("FAIL: chunk %zu peak residency %zu pairs exceeds chunk x queue = %zu\n",
                  chunk, stats.peak_resident_pairs, chunk * queue);
      ++failures;
    }

    table.add_row({"streamed", std::to_string(chunk), util::Table::ms(stats.align_ms),
                   util::Table::num(stats.gcups), util::Table::ms(wall),
                   std::to_string(stats.peak_resident_pairs), ok ? "yes" : "NO"});
  }

  std::printf("=== stream_throughput — %zu pairs, %s@%s, queue %lld ===\n%s", pairs,
              opts.kernel.c_str(), opts.device.c_str(), static_cast<long long>(queue),
              table.render().c_str());
  std::printf("streamed footprint bound: chunk x queue pairs resident; resident mode "
              "holds all %zu pairs.\n",
              batch.size());
  return failures == 0 ? 0 : 1;
}
