// End-to-end autotuning: the recommended configuration must actually win
// (or tie) against the default on the workload class it was tuned for.
#include <gtest/gtest.h>

#include "core/aligner.hpp"
#include "core/autotune.hpp"
#include "core/workload.hpp"
#include "kernels/saloba_kernel.hpp"

namespace saloba::core {
namespace {

double run_with(const kernels::SalobaConfig& cfg, const seq::PairBatch& batch) {
  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  return kernels::make_saloba(cfg)->run(dev, batch, align::ScoringScheme{}).time.total_ms;
}

class AutotuneE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    genome_ = new std::vector<seq::BaseCode>(make_genome(1 << 20, 99));
  }
  static void TearDownTestSuite() {
    delete genome_;
    genome_ = nullptr;
  }
  static std::vector<seq::BaseCode>* genome_;
};
std::vector<seq::BaseCode>* AutotuneE2E::genome_ = nullptr;

TEST_F(AutotuneE2E, RecommendationBeatsWorstConfigOnLongImbalanced) {
  auto ds = make_dataset_b(*genome_, 40, 7);
  auto cfg = recommend_config(ds.stats);
  kernels::SalobaConfig worst;
  worst.subwarp_size = cfg.subwarp_size == 8 ? 32 : 8;
  EXPECT_LT(run_with(cfg, ds.batch), run_with(worst, ds.batch));
}

TEST_F(AutotuneE2E, RecommendationCompetitiveOnShortReads) {
  auto ds = make_dataset_a(*genome_, 150, 8);
  auto cfg = recommend_config(ds.stats);
  double tuned = run_with(cfg, ds.batch);
  double best = tuned;
  for (int sw : {8, 16, 32}) {
    kernels::SalobaConfig c;
    c.subwarp_size = sw;
    best = std::min(best, run_with(c, ds.batch));
  }
  // Within 25% of the best exhaustive choice.
  EXPECT_LE(tuned, best * 1.25);
}

TEST_F(AutotuneE2E, MultiDeviceSortedSplitHelpsOnDatasetB) {
  // Sec. VII-C through the public Aligner: on 3 simulated devices the
  // sorted split's makespan is no worse than the static one on the
  // imbalanced dataset, and the split changes no result.
  auto ds = make_dataset_b(*genome_, 30, 9);
  auto run = [&](gpusim::SplitPolicy policy) {
    AlignerOptions opts;
    opts.backend = Backend::kSimulated;
    opts.devices = 3;
    opts.split_policy = policy;
    return Aligner(opts).align(ds.batch);
  };
  const AlignOutput statik = run(gpusim::SplitPolicy::kStatic);
  const AlignOutput sorted = run(gpusim::SplitPolicy::kSorted);
  EXPECT_EQ(sorted.results, statik.results);
  EXPECT_EQ(sorted.schedule.lanes, 3);
  EXPECT_LE(sorted.time_ms, statik.time_ms * 1.05);
  EXPECT_GT(sorted.time_ms, 0.0);
}

}  // namespace
}  // namespace saloba::core
