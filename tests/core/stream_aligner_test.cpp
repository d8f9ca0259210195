// StreamAligner invariants: a streamed run is bit-identical to the one-shot
// Aligner::align path (same results, same order) on both backends, chunks
// reach the sink in input order even with concurrent align workers,
// residency never exceeds the chunk budget (a slow sink included),
// degenerate inputs yield well-formed outputs, and shutting the pipeline
// down early (source, sink or backend failure) joins every thread cleanly
// and rethrows.
#include "core/stream_aligner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../support/test_support.hpp"
#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "kernels/kernel_iface.hpp"
#include "seq/fasta.hpp"

namespace saloba::core {
namespace {

AlignerOptions sim_options(int devices = 1) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.device = "gtx1650";
  opts.devices = devices;
  return opts;
}

TEST(StreamAligner, StreamedCpuBitIdenticalToOneShot) {
  auto batch = saloba::testing::imbalanced_batch(801, 53, 20, 400);
  AlignerOptions opts;  // CPU
  auto expected = Aligner(opts).align(batch);

  StreamOptions stream;
  stream.chunk_pairs = 7;  // far smaller than the batch
  stream.queue_capacity = 3;
  StreamAligner streamer(opts, stream);
  auto out = streamer.align_streamed(batch);

  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.cells, expected.cells);
  EXPECT_GE(out.schedule.shards, (batch.size() + 6) / 7);
}

TEST(StreamAligner, StreamedSimBitIdenticalToOneShotAcrossDevices) {
  auto batch = saloba::testing::imbalanced_batch(802, 41, 30, 500);
  for (int devices : {1, 2}) {
    auto expected = Aligner(sim_options(devices)).align(batch);
    StreamOptions stream;
    stream.chunk_pairs = 9;
    StreamAligner streamer(sim_options(devices), stream);
    auto out = streamer.align_streamed(batch);
    EXPECT_EQ(out.results, expected.results) << "devices=" << devices;
    ASSERT_TRUE(out.kernel_stats.has_value());
    // Functional work is conserved exactly, chunked or not.
    EXPECT_EQ(out.kernel_stats->totals.dp_cells, expected.kernel_stats->totals.dp_cells);
  }
}

TEST(StreamAligner, StreamedDefaultBandBitIdenticalToOneShot) {
  // Banded parity (Sec. VII-B): a batch banded through its default_band
  // must stream bit-identically to one-shot Aligner::align — every chunk
  // carries the band each pair resolves to.
  auto batch = saloba::testing::imbalanced_batch(806, 47, 10, 350);
  batch.default_band = 6;
  for (bool simulated : {false, true}) {
    AlignerOptions opts = simulated ? sim_options(2) : AlignerOptions{};
    auto expected = Aligner(opts).align(batch);

    StreamOptions stream;
    stream.chunk_pairs = 8;
    stream.queue_capacity = 3;
    stream.align_threads = 2;
    StreamAligner streamer(opts, stream);
    auto out = streamer.align_streamed(batch);

    EXPECT_EQ(out.results, expected.results) << (simulated ? "sim" : "cpu");
    // The banded workload measure is conserved across chunking too.
    EXPECT_EQ(out.cells, expected.cells) << (simulated ? "sim" : "cpu");
    EXPECT_EQ(out.cells, batch.total_banded_cells());
    if (simulated) {
      ASSERT_TRUE(out.kernel_stats.has_value());
      EXPECT_EQ(out.kernel_stats->totals.dp_cells, expected.kernel_stats->totals.dp_cells);
      EXPECT_EQ(out.kernel_stats->totals.dp_cells_skipped,
                expected.kernel_stats->totals.dp_cells_skipped);
    }
  }
}

TEST(StreamAligner, MixedBandSourceBatchStaysOneShotIdentical) {
  // A source batch mixing band-0 (full table) pairs with banded ones,
  // streamed at one pair per chunk: chunks holding only band-0 pairs run
  // full-table, exactly as the one-shot path does.
  util::Xoshiro256 rng(809);
  seq::PairBatch batch;
  for (int i = 0; i < 16; ++i) {
    std::size_t len = 40 + rng.below(200);
    batch.add(saloba::testing::random_seq(rng, len),
              saloba::testing::random_seq(rng, len + rng.below(60)),
              i % 2 == 0 ? 0 : 1 + rng.below(24));
  }
  ASSERT_FALSE(batch.bands.empty());
  AlignerOptions opts;
  auto expected = Aligner(opts).align(batch);

  StreamOptions stream;
  stream.chunk_pairs = 1;  // isolates every band-0 pair in its own chunk
  StreamAligner streamer(opts, stream);
  auto out = streamer.align_streamed(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.cells, expected.cells);
}

TEST(StreamAligner, StreamedBandedSourceBatchBitIdenticalToOneShot) {
  // A source batch that already carries its own per-pair bands (the seedext
  // job shape): ResidentChunkSource must forward them into every chunk.
  util::Xoshiro256 rng(807);
  seq::PairBatch batch;
  for (int i = 0; i < 40; ++i) {
    std::size_t len = 20 + rng.below(300);
    batch.add(saloba::testing::random_seq(rng, len),
              saloba::testing::random_seq(rng, len + rng.below(80)),
              1 + rng.below(48));
  }
  AlignerOptions opts = sim_options(1);
  auto expected = Aligner(opts).align(batch);

  StreamOptions stream;
  stream.chunk_pairs = 6;
  StreamAligner streamer(opts, stream);
  auto out = streamer.align_streamed(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.cells, expected.cells);
  EXPECT_EQ(out.cells, batch.total_banded_cells());
}

TEST(StreamAligner, MergerRestoresOrderUnderConcurrentWorkers) {
  // Wildly skewed chunk costs + 3 concurrent align workers: chunks finish
  // out of order, the sink must still see them in input order.
  util::Xoshiro256 rng(803);
  seq::PairBatch batch;
  for (int i = 0; i < 60; ++i) {
    std::size_t len = rng.bernoulli(0.15) ? 1000 : 30;
    batch.add(saloba::testing::random_seq(rng, len), saloba::testing::random_seq(rng, len));
  }
  auto expected = Aligner(sim_options(1)).align(batch);

  StreamOptions stream;
  stream.chunk_pairs = 5;
  stream.queue_capacity = 6;
  stream.align_threads = 3;
  StreamAligner streamer(sim_options(1), stream);

  std::vector<std::size_t> seen_chunks;
  ResidentChunkSource source(batch, stream.chunk_pairs);
  std::vector<align::AlignmentResult> results(batch.size());
  auto stats = streamer.run(source, [&](std::size_t index, std::size_t first_pair,
                                        AlignOutput&& out) {
    seen_chunks.push_back(index);
    std::copy(out.results.begin(), out.results.end(),
              results.begin() + static_cast<std::ptrdiff_t>(first_pair));
  });

  ASSERT_EQ(seen_chunks.size(), stats.chunks);
  for (std::size_t i = 0; i < seen_chunks.size(); ++i) {
    EXPECT_EQ(seen_chunks[i], i);  // strictly ascending chunk order
  }
  EXPECT_EQ(results, expected.results);
  EXPECT_EQ(stats.pairs, batch.size());
}

TEST(StreamAligner, ResidencyStaysWithinChunkBudget) {
  auto batch = saloba::testing::related_batch(804, 64, 60, 80);
  StreamOptions stream;
  stream.chunk_pairs = 4;
  stream.queue_capacity = 3;
  StreamAligner streamer(AlignerOptions{}, stream);
  ResidentChunkSource source(batch, stream.chunk_pairs);
  auto stats = streamer.run(source, nullptr);
  EXPECT_EQ(stats.pairs, batch.size());
  EXPECT_LE(stats.peak_resident_chunks, stream.queue_capacity);
  EXPECT_LE(stats.peak_resident_pairs, stream.chunk_pairs * stream.queue_capacity);
}

TEST(StreamAligner, SlowSinkKeepsResidencyWithinBudget) {
  // Three align workers outpace a sink that sleeps per chunk, so finished
  // chunks wait unpolled in the service: the tickets, not the service's
  // caps, must still hold residency to chunk_pairs x queue_capacity.
  auto batch = saloba::testing::related_batch(812, 48, 60, 80);
  StreamOptions stream;
  stream.chunk_pairs = 4;
  stream.queue_capacity = 2;
  stream.align_threads = 3;
  StreamAligner streamer(AlignerOptions{}, stream);
  ResidentChunkSource source(batch, stream.chunk_pairs);
  std::vector<align::AlignmentResult> results(batch.size());
  auto stats = streamer.run(source, [&](std::size_t, std::size_t first_pair,
                                        AlignOutput&& out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::copy(out.results.begin(), out.results.end(),
              results.begin() + static_cast<std::ptrdiff_t>(first_pair));
  });
  EXPECT_EQ(stats.chunks, batch.size() / stream.chunk_pairs);
  EXPECT_LE(stats.peak_resident_pairs, 8u);
  EXPECT_LE(stats.peak_resident_chunks, 2u);
  EXPECT_EQ(results, Aligner(AlignerOptions{}).align(batch).results);
}

TEST(StreamAligner, EmptyStreamYieldsWellFormedOutput) {
  // Degenerate-input guard: no chunks at all must still produce zeroed,
  // NaN-free stats and a well-formed AlignOutput.
  seq::PairBatch empty;
  StreamAligner streamer(sim_options(2));
  auto out = streamer.align_streamed(empty);
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.schedule.shards, 0u);
  EXPECT_DOUBLE_EQ(out.time_ms, 0.0);
  EXPECT_DOUBLE_EQ(out.gcups, 0.0);
  EXPECT_FALSE(out.gcups != out.gcups);  // not NaN
  ASSERT_EQ(out.schedule.lane_ms.size(), 2u);

  ResidentChunkSource source(empty, 8);
  auto stats = streamer.run(source, nullptr);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_DOUBLE_EQ(stats.gcups, 0.0);
  EXPECT_GE(stats.wall_ms, 0.0);
}

TEST(StreamAligner, EmptyBatchThroughSchedulerStaysWellFormed) {
  // Companion regression for the one-shot path: empty PairBatch through the
  // CPU scheduler (the sim path is covered in scheduler_test).
  seq::PairBatch empty;
  auto out = Aligner(AlignerOptions{}).align(empty);
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.schedule.shards, 0u);
  EXPECT_DOUBLE_EQ(out.gcups, 0.0);
  EXPECT_FALSE(out.gcups != out.gcups);
}

TEST(StreamAligner, SourceFailureShutsPipelineDownCleanly) {
  // The shutdown path: a source that throws mid-stream must not deadlock
  // the queues; every thread joins and the exception resurfaces.
  class FailingSource final : public PairChunkSource {
   public:
    bool next(seq::PairBatch& chunk) override {
      if (++calls_ > 3) throw std::runtime_error("disk died");
      chunk = saloba::testing::related_batch(805 + calls_, 6, 40, 60);
      return true;
    }

   private:
    int calls_ = 0;
  };

  FailingSource source;
  StreamAligner streamer(AlignerOptions{});
  EXPECT_THROW(streamer.run(source, nullptr), std::runtime_error);
}

TEST(StreamAligner, SinkFailureShutsPipelineDownCleanly) {
  auto batch = saloba::testing::related_batch(806, 40, 40, 60);
  StreamOptions stream;
  stream.chunk_pairs = 4;
  StreamAligner streamer(AlignerOptions{}, stream);
  ResidentChunkSource source(batch, stream.chunk_pairs);
  EXPECT_THROW(streamer.run(source,
                            [](std::size_t index, std::size_t, AlignOutput&&) {
                              if (index == 2) throw std::runtime_error("sink full");
                            }),
               std::runtime_error);
}

TEST(StreamAligner, BackendFailureShutsPipelineDownCleanly) {
  // The simulated ADEPT kernel rejects pairs over 1,024 bp; one sits in the
  // middle chunk. With two align workers the error must reach run(), every
  // thread must join, no chunk after the failure may reach the sink, and
  // the next run (a fresh service) must not inherit the failure.
  auto batch = saloba::testing::related_batch(813, 12, 60, 80);
  auto too_long = saloba::testing::related_batch(814, 1, 1030, 1030);
  batch.queries[5] = too_long.queries[0];
  batch.refs[5] = too_long.refs[0];
  AlignerOptions opts = sim_options();
  opts.kernel = "adept";
  StreamOptions stream;
  stream.chunk_pairs = 4;  // chunks [0, 4), [4, 8) holding the bad pair, [8, 12)
  stream.align_threads = 2;
  StreamAligner streamer(opts, stream);
  ResidentChunkSource source(batch, stream.chunk_pairs);
  std::vector<std::size_t> emitted;
  EXPECT_THROW(streamer.run(source, [&](std::size_t index, std::size_t, AlignOutput&&) {
    emitted.push_back(index);
  }),
               kernels::KernelUnsupportedError);
  for (std::size_t index : emitted) EXPECT_EQ(index, 0u);

  auto good = saloba::testing::related_batch(815, 12, 60, 80);
  EXPECT_EQ(streamer.align_streamed(good).results, Aligner(opts).align(good).results);
}

TEST(StreamAligner, ReaderPairSourceZipsTwoStreams) {
  // Two FASTQ streams of unequal record sizes zipped pairwise, with
  // scores matching the resident path over the same pairs.
  auto batch = saloba::testing::related_batch(807, 11, 50, 70);
  std::vector<seq::Sequence> queries(batch.size()), refs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queries[i].name = "q" + std::to_string(i);
    queries[i].bases = batch.queries[i];
    refs[i].name = "r" + std::to_string(i);
    refs[i].bases = batch.refs[i];
  }
  std::ostringstream qs, rs;
  seq::write_fastq(qs, queries);
  seq::write_fastq(rs, refs);

  std::istringstream qin(qs.str()), rin(rs.str());
  seq::FastqChunkReader qreader(qin, 4);
  seq::FastqChunkReader rreader(rin, 4);
  ReaderPairSource source(qreader, rreader);

  StreamAligner streamer(AlignerOptions{});
  std::vector<align::AlignmentResult> results(batch.size());
  streamer.run(source, [&](std::size_t, std::size_t first_pair, AlignOutput&& out) {
    std::copy(out.results.begin(), out.results.end(),
              results.begin() + static_cast<std::ptrdiff_t>(first_pair));
  });
  EXPECT_EQ(results, Aligner(AlignerOptions{}).align(batch).results);
}

TEST(StreamAligner, ReaderPairSourceRejectsLengthMismatch) {
  std::istringstream qin("@q0\nACGT\n+\nIIII\n@q1\nACGT\n+\nIIII\n");
  std::istringstream rin("@r0\nTTTT\n+\nIIII\n");
  seq::FastqChunkReader qreader(qin, 4);
  seq::FastqChunkReader rreader(rin, 4);
  ReaderPairSource source(qreader, rreader);
  StreamAligner streamer(AlignerOptions{});
  EXPECT_THROW(streamer.run(source, nullptr), std::runtime_error);
}

TEST(StreamAligner, StreamedMixedPresetBitIdenticalToOneShot) {
  // Heterogeneous lanes through the streaming pipeline: a gtx1650+rtx3090
  // backend, chunked, must reproduce the one-shot mixed-preset run exactly.
  auto batch = saloba::testing::imbalanced_batch(810, 37, 30, 600);
  AlignerOptions opts = sim_options();
  opts.device = "gtx1650,rtx3090";
  auto expected = Aligner(opts).align(batch);

  StreamOptions stream;
  stream.chunk_pairs = 8;
  StreamAligner streamer(opts, stream);
  EXPECT_EQ(streamer.backend().lanes(), 2);
  auto out = streamer.align_streamed(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.cells, expected.cells);
  ASSERT_EQ(out.schedule.lane_weights.size(), 2u);
  EXPECT_GT(out.schedule.lane_weights[1], out.schedule.lane_weights[0]);
}

TEST(StreamAligner, StreamImbalanceCountsIdleLanes) {
  // Companion regression for the streaming call site of the busy-lane bug:
  // single-pair chunks over a 2-device backend all land on lane 0, so the
  // aggregate must report busy_lanes 1 and imbalance 2, not a "balanced" 1.
  auto batch = saloba::testing::related_batch(811, 6, 60, 80);
  StreamOptions stream;
  stream.chunk_pairs = 1;
  StreamAligner streamer(sim_options(2), stream);
  auto out = streamer.align_streamed(batch);
  ASSERT_EQ(out.schedule.lane_ms.size(), 2u);
  EXPECT_GT(out.schedule.lane_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(out.schedule.lane_ms[1], 0.0);
  EXPECT_EQ(out.schedule.busy_lanes, 1);
  EXPECT_DOUBLE_EQ(out.schedule.imbalance, 2.0);
}

TEST(StreamAligner, AutotunedScheduleShardsSkewedChunks) {
  // With autotune on (the default), a skewed chunk bigger than 4 shards per
  // lane gets a shard cap; the uniform chunk stays a single launch.
  auto skewed = saloba::testing::imbalanced_batch(808, 40, 20, 800);
  StreamOptions stream;
  stream.chunk_pairs = 40;  // one chunk
  StreamAligner streamer(AlignerOptions{}, stream);
  auto out = streamer.align_streamed(skewed);
  EXPECT_GT(out.schedule.shards, 1u);
  EXPECT_EQ(out.results, Aligner(AlignerOptions{}).align(skewed).results);

  auto uniform = saloba::testing::related_batch(809, 40, 100, 100);
  auto out2 = streamer.align_streamed(uniform);
  EXPECT_EQ(out2.schedule.shards, 1u);
}

}  // namespace
}  // namespace saloba::core
