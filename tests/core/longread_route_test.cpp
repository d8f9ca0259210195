// Long-read routing (core::LongReadPolicy → X-drop wavefront engine):
// routed pairs produce exactly the wavefront engine's results on every
// backend and lane shape, short pairs are untouched (bit-identical to a run
// with routing disabled and to the scalar oracles), the two-phase traceback
// mirrors the routed score pass, and the simulated backend attributes the
// routed phase separately (the gpusim::Phase::kXdrop counter and breakdown
// slots).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/traceback.hpp"
#include "align/xdrop_wavefront.hpp"
#include "core/aligner.hpp"
#include "core/backend.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace saloba::core {
namespace {

constexpr std::size_t kThreshold = 600;

/// Short pairs well under the threshold plus a few long ones over it,
/// interleaved, with related (scoring) sequences so routing has real
/// alignments to preserve.
seq::PairBatch mixed_batch(std::uint64_t seed, std::size_t shorts, std::size_t longs) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  const std::size_t total = shorts + longs;
  std::size_t longs_left = longs;
  for (std::size_t p = 0; p < total; ++p) {
    // Interleave: every third slot is long until the quota is spent.
    const bool make_long = longs_left > 0 && (p % 3 == 1 || total - p <= longs_left);
    if (make_long) --longs_left;
    std::size_t rlen = make_long ? kThreshold + 200 + rng.below(300) : 80 + rng.below(120);
    auto ref = saloba::testing::random_seq(rng, rlen);
    std::size_t qlen = rlen - rng.below(rlen / 4);
    std::vector<seq::BaseCode> query(ref.begin(),
                                     ref.begin() + static_cast<std::ptrdiff_t>(qlen));
    query = saloba::testing::mutate(rng, query, 0.06);
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

bool is_routed(const seq::PairBatch& batch, std::size_t i, const LongReadPolicy& policy) {
  return policy.routes(batch.refs[i].size(), batch.queries[i].size());
}

AlignerOptions routed_options(Backend backend) {
  AlignerOptions opts;
  opts.backend = backend;
  if (backend == Backend::kSimulated) opts.device = "gtx1650";
  opts.longread_threshold = kThreshold;
  opts.xdrop = 120;
  return opts;
}

TEST(LongReadRoute, RoutedPairsMatchWavefrontEngineOnCpu) {
  const auto batch = mixed_batch(9101, 20, 6);
  const AlignerOptions opts = routed_options(Backend::kCpu);
  const LongReadPolicy policy = opts.longread_policy();
  const auto out = Aligner(opts).align(batch);

  AlignerOptions off = opts;
  off.longread_threshold = 0;
  const auto classic = Aligner(off).align(batch);

  std::size_t routed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_routed(batch, i, policy)) {
      ++routed;
      const auto expect = align::xdrop_wavefront_score(
          batch.refs[i], batch.queries[i], opts.scoring, align::XDropParams{opts.xdrop});
      EXPECT_EQ(out.results[i], expect) << "routed pair " << i;
    } else {
      // Non-routed pairs are untouched by the policy.
      EXPECT_EQ(out.results[i], classic.results[i]) << "short pair " << i;
    }
  }
  EXPECT_GT(routed, 0u);
  EXPECT_LT(routed, batch.size());
}

TEST(LongReadRoute, ShortReadWorkloadsAreRoutingInvariant) {
  // Every pair below the threshold: enabling routing must be a no-op,
  // bit-identical results.
  const auto batch = saloba::testing::related_batch(9102, 24, 100, 130);
  const AlignerOptions on = routed_options(Backend::kCpu);
  AlignerOptions off = on;
  off.longread_threshold = 0;
  const auto with = Aligner(on).align(batch);
  const auto without = Aligner(off).align(batch);
  EXPECT_EQ(with.results, without.results);
  EXPECT_EQ(with.cells, without.cells);
}

TEST(LongReadRoute, AllBackendsAgreeOnRoutedBatches) {
  const auto batch = mixed_batch(9103, 12, 4);
  const AlignerOptions opts = routed_options(Backend::kCpu);
  const LongReadPolicy policy = opts.longread_policy();
  const auto cpu = Aligner(opts).align(batch);

  // The host lanes' short pairs match the scalar oracle.
  const auto oracle = align::align_batch(batch, opts.scoring);
  std::size_t shorts = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_routed(batch, i, policy)) continue;
    ++shorts;
    EXPECT_EQ(cpu.results[i], oracle[i]) << "short pair " << i;
  }
  EXPECT_GT(shorts, 0u);

  const auto sim = Aligner(routed_options(Backend::kSimulated)).align(batch);
  EXPECT_EQ(sim.results, cpu.results);
}

TEST(LongReadRoute, ShardedRoutedRunMatchesSingleLane) {
  // Routed pairs are priced by the wavefront estimate in shard packing; the
  // merged output must stay bit-identical to the unsharded run regardless.
  const auto batch = mixed_batch(9104, 18, 5);
  const auto single = Aligner(routed_options(Backend::kCpu)).align(batch);

  AlignerOptions sharded = routed_options(Backend::kCpu);
  sharded.max_shard_pairs = 4;
  sharded.cpu_lanes = 2;
  const auto out = Aligner(sharded).align(batch);
  EXPECT_EQ(out.results, single.results);
  EXPECT_GT(out.schedule.shards, 1u);
}

TEST(LongReadRoute, TracebackPhaseMirrorsRoutedScorePass) {
  // The short pairs trace as SIMD cohorts, matching the scalar oracle,
  // while the routed pairs still take the X-drop traceback.
  const auto batch = mixed_batch(9105, 10, 4);
  AlignerOptions opts = routed_options(Backend::kCpu);
  opts.traceback = true;
  const LongReadPolicy policy = opts.longread_policy();
  const auto out = Aligner(opts).align(batch);
  ASSERT_EQ(out.traced.size(), batch.size());

  const auto oracle = saloba::testing::oracle_traces(batch, opts.scoring, opts.zdrop);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& t = out.traced[i];
    EXPECT_EQ(t.end, out.results[i]) << "pair " << i;
    if (out.results[i].score <= 0) continue;
    EXPECT_TRUE(align::cigar_consistent(t, batch.refs[i].size(), batch.queries[i].size()))
        << "pair " << i;
    EXPECT_EQ(align::rescore_cigar(t, batch.refs[i], batch.queries[i], opts.scoring),
              out.results[i].score)
        << "pair " << i;
    if (is_routed(batch, i, policy)) {
      const auto expect = align::xdrop_wavefront_align(
          batch.refs[i], batch.queries[i], opts.scoring, align::XDropParams{opts.xdrop});
      EXPECT_EQ(t, expect) << "routed pair " << i;
    } else {
      EXPECT_EQ(t, oracle[i]) << "short pair " << i;
    }
  }
}

TEST(LongReadRoute, SimulatedBackendAttributesXdropPhase) {
  const auto batch = mixed_batch(9106, 8, 4);
  AlignerOptions opts = routed_options(Backend::kSimulated);
  opts.traceback = true;
  const auto out = Aligner(opts).align(batch);

  ASSERT_TRUE(out.kernel_stats.has_value());
  ASSERT_TRUE(out.time_breakdown.has_value());
  const auto& phases = out.kernel_stats->totals.phases;
  EXPECT_GT(phases[gpusim::Phase::kXdrop].work, 0u);
  EXPECT_GT(phases[gpusim::Phase::kXdrop].bytes, 0u);
  EXPECT_GT(out.time_breakdown->phase_ms[gpusim::Phase::kXdrop], 0.0);
  // The classic kernel still ran the short pairs, attributed apart.
  EXPECT_GT(out.kernel_stats->totals.dp_cells, 0u);
  // Traceback-phase counters stay separate from the routed share.
  EXPECT_GT(phases[gpusim::Phase::kTraceback].work, 0u);

  AlignerOptions off = opts;
  off.longread_threshold = 0;
  const auto classic = Aligner(off).align(batch);
  ASSERT_TRUE(classic.kernel_stats.has_value());
  EXPECT_EQ(classic.kernel_stats->totals.phases[gpusim::Phase::kXdrop].work, 0u);
  EXPECT_EQ(classic.time_breakdown->phase_ms[gpusim::Phase::kXdrop], 0.0);
  // Same alignments either way: routing only changes engines, not answers,
  // on pairs this clean (identity prefix + substitutions within xdrop).
  EXPECT_EQ(out.results, classic.results);
}

TEST(LongReadRoute, PolicyPricesRoutedPairsByWavefrontEstimate) {
  LongReadPolicy policy{kThreshold, 120};
  EXPECT_TRUE(policy.routes(kThreshold, 10));
  EXPECT_TRUE(policy.routes(10, kThreshold));
  EXPECT_FALSE(policy.routes(kThreshold - 1, kThreshold - 1));
  // The packing load of a routed pair is the score-bounded window, far under
  // the nominal table for ultra-long pairs.
  const std::size_t n = 100000, m = 100000;
  EXPECT_LT(policy.cells_estimate(n, m), n * m / 100);
  EXPECT_GT(policy.cells_estimate(n, m), 0u);
  LongReadPolicy off{};
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.routes(1 << 20, 1 << 20));
}

}  // namespace
}  // namespace saloba::core
