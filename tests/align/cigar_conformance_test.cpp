// CIGAR conformance: the contract of the two-phase pipeline
// (AlignerOptions::traceback), pinned for every kernel × {banded, unbanded}
// × {one-shot, streamed} path:
//   * CIGAR ops consume exactly query_end - query_start + 1 query bases and
//     the matching reference span;
//   * the score recomputed by walking the CIGAR over the sequences equals
//     the reported score;
//   * traced endpoints equal the score-pass endpoints under the canonical
//     improves() tie-break.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/traceback.hpp"
#include "core/aligner.hpp"
#include "core/stream_aligner.hpp"

namespace saloba::core {
namespace {

seq::PairBatch conformance_batch(std::uint64_t seed, std::size_t band) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < 48; ++p) {
    std::size_t rlen = 40 + rng.below(160);
    std::size_t qlen = 1 + rng.below(rlen);
    auto ref = saloba::testing::random_seq(rng, rlen);
    std::vector<seq::BaseCode> query;
    if (rng.bernoulli(0.7)) {
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(qlen));
      query = saloba::testing::mutate(rng, query, 0.02 + 0.15 * rng.uniform());
    } else {
      query = saloba::testing::random_seq(rng, qlen);
    }
    batch.add(std::move(query), std::move(ref));
  }
  batch.default_band = band;
  return batch;
}

/// The satellite properties, per pair.
void check_conformance(const seq::PairBatch& batch, const AlignOutput& out,
                       const align::ScoringScheme& scoring, const std::string& label) {
  ASSERT_EQ(out.results.size(), batch.size()) << label;
  ASSERT_EQ(out.traced.size(), batch.size()) << label;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const align::TracedAlignment& t = out.traced[i];
    // Endpoints: the traceback pass re-derives exactly the score pass's
    // best cell (canonical tie-break everywhere).
    EXPECT_EQ(t.end, out.results[i]) << label << " pair " << i;
    EXPECT_TRUE(align::cigar_consistent(t, batch.refs[i].size(), batch.queries[i].size()))
        << label << " pair " << i << " cigar " << t.cigar;
    if (t.end.score == 0) {
      EXPECT_TRUE(t.cigar.empty()) << label << " pair " << i;
      continue;
    }
    // Exact span consumption, op by op.
    std::size_t q_used = 0;
    std::size_t r_used = 0;
    for (char op : align::expand_cigar(t.cigar)) {
      q_used += op != 'D';
      r_used += op != 'I';
    }
    EXPECT_EQ(q_used, static_cast<std::size_t>(t.end.query_end - t.query_start) + 1)
        << label << " pair " << i;
    EXPECT_EQ(r_used, static_cast<std::size_t>(t.end.ref_end - t.ref_start) + 1)
        << label << " pair " << i;
    // Rescoring the path reproduces the reported score.
    EXPECT_EQ(align::rescore_cigar(t, batch.refs[i], batch.queries[i], scoring),
              t.end.score)
        << label << " pair " << i << " cigar " << t.cigar;
  }
}

struct Config {
  Backend backend;
  const char* kernel;  // simulated only

  std::string name() const { return backend == Backend::kSimulated ? kernel : "cpu"; }
  AlignerOptions options() const {
    AlignerOptions opts;
    opts.backend = backend;
    if (backend == Backend::kSimulated) opts.kernel = kernel;
    opts.traceback = true;
    return opts;
  }
};

std::vector<Config> configs() {
  return {{Backend::kCpu, ""},
          {Backend::kSimulated, "saloba"},
          {Backend::kSimulated, "saloba-sw8"},
          {Backend::kSimulated, "gasal2"},
          {Backend::kSimulated, "swsharp"}};
}

TEST(CigarConformance, EveryKernelBandedAndUnbandedOneShot) {
  for (const Config& cfg : configs()) {
    for (std::size_t band : {std::size_t{0}, std::size_t{12}}) {
      const AlignerOptions opts = cfg.options();
      Aligner aligner(opts);
      auto batch = conformance_batch(501, band);
      auto out = aligner.align(batch);
      std::string label = cfg.name() + "/band=" + std::to_string(band);
      check_conformance(batch, out, opts.scoring, label);
      EXPECT_GT(out.traceback_cells, 0u) << label;
    }
  }
}

TEST(CigarConformance, StreamedEqualsOneShotWithTraceback) {
  for (const Config& cfg : configs()) {
    for (std::size_t band : {std::size_t{0}, std::size_t{12}}) {
      const AlignerOptions opts = cfg.options();
      auto batch = conformance_batch(733, band);

      Aligner one_shot(opts);
      auto want = one_shot.align(batch);

      StreamOptions stream;
      stream.chunk_pairs = 7;  // forces many chunks and a partial tail
      StreamAligner streamer(opts, stream);
      auto got = streamer.align_streamed(batch);

      std::string label = cfg.name() + "/band=" + std::to_string(band);
      check_conformance(batch, got, opts.scoring, label + "/streamed");
      ASSERT_EQ(got.traced.size(), want.traced.size()) << label;
      for (std::size_t i = 0; i < want.traced.size(); ++i) {
        EXPECT_EQ(got.traced[i], want.traced[i]) << label << " pair " << i;
      }
      EXPECT_EQ(got.results, want.results) << label;
    }
  }
}

TEST(CigarConformance, ShardedMultiLaneMergesTracesInInputOrder) {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.devices = 3;
  opts.traceback = true;
  SimulatedGpuBackend backend(opts);
  SchedulerOptions capped;
  capped.max_shard_pairs = 5;
  capped.traceback = true;
  auto batch = conformance_batch(911, 0);
  auto out = BatchScheduler(&backend, capped).run(batch);
  ASSERT_GT(out.schedule.shards, 1u);
  check_conformance(batch, out, opts.scoring, "sharded");

  // The sharded traced channel must equal the unsharded one, pair for pair.
  AlignerOptions single = opts;
  single.devices = 1;
  auto want = Aligner(single).align(batch);
  ASSERT_EQ(out.traced.size(), want.traced.size());
  for (std::size_t i = 0; i < want.traced.size(); ++i) {
    EXPECT_EQ(out.traced[i], want.traced[i]) << " pair " << i;
  }
}

TEST(CigarConformance, ScoreOnlyRunsCarryNoTracedChannel) {
  AlignerOptions opts;  // traceback defaults off
  Aligner aligner(opts);
  auto batch = conformance_batch(42, 0);
  auto out = aligner.align(batch);
  EXPECT_TRUE(out.traced.empty());
  EXPECT_EQ(out.traceback_ms, 0.0);
  EXPECT_EQ(out.traceback_cells, 0u);
}

TEST(CigarConformance, EmptyBatchTraceback) {
  AlignerOptions opts;
  opts.traceback = true;
  Aligner aligner(opts);
  seq::PairBatch empty;
  auto out = aligner.align(empty);
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(out.traced.empty());
}

}  // namespace
}  // namespace saloba::core
