// Failure modelling: the paper's "fail to run" annotations (Fig. 6, Sec. V)
// must reproduce — ADEPT's structural 1024 bp cap, NVBIO/SOAP3-dp device-
// memory exhaustion at paper-scale batches, SW#'s launch explosion.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

constexpr std::size_t kPaperBatch = 5000;

TEST(Limits, AdeptRefusesBeyond1024) {
  auto kernel = make_kernel("adept");
  EXPECT_EQ(kernel->info().max_len, 1024u);
  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  auto batch = saloba::testing::related_batch(1, 4, 1030, 1030);
  EXPECT_THROW(kernel->run(dev, batch, align::ScoringScheme{}), KernelUnsupportedError);
}

TEST(Limits, AdeptAccepts1024) {
  auto kernel = make_kernel("adept");
  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  auto batch = saloba::testing::related_batch(2, 2, 1024, 1024);
  EXPECT_NO_THROW(kernel->run(dev, batch, align::ScoringScheme{}));
}

TEST(Limits, NvbioOomAtPaperScaleLongReads) {
  // 5000 pairs x 2048^2 x 2 B staging = ~42 GB > RTX3090's 24 GB.
  auto kernel = make_kernel("nvbio", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  auto batch = saloba::testing::related_batch(3, 4, 2048, 2048);
  EXPECT_THROW(kernel->run(dev, batch, align::ScoringScheme{}), gpusim::DeviceOomError);
}

TEST(Limits, NvbioOomEarlierOnGtx1650) {
  // 5000 x 1024^2 x 2 B = ~10 GB > 4 GB.
  auto kernel = make_kernel("nvbio", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto batch = saloba::testing::related_batch(4, 4, 1024, 1024);
  EXPECT_THROW(kernel->run(dev, batch, align::ScoringScheme{}), gpusim::DeviceOomError);
}

TEST(Limits, NvbioRunsAtShortLengths) {
  auto kernel = make_kernel("nvbio", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto batch = saloba::testing::related_batch(5, 4, 256, 256);
  EXPECT_NO_THROW(kernel->run(dev, batch, align::ScoringScheme{}));
}

TEST(Limits, Soap3OomOnLongInputsOnGtx1650) {
  // 5000 x 1024 x 1 KiB = ~5 GB > 4 GB (paper: dataset-A failure, Fig 6(b)).
  auto kernel = make_kernel("soap3-dp", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto batch = saloba::testing::related_batch(6, 4, 1024, 1024);
  EXPECT_THROW(kernel->run(dev, batch, align::ScoringScheme{}), gpusim::DeviceOomError);
}

TEST(Limits, Soap3SurvivesShortReadsOnGtx1650) {
  auto kernel = make_kernel("soap3-dp", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto batch = saloba::testing::related_batch(7, 4, 512, 512);
  EXPECT_NO_THROW(kernel->run(dev, batch, align::ScoringScheme{}));
}

TEST(Limits, Soap3LongInputsFitOnRtx3090) {
  auto kernel = make_kernel("soap3-dp", kPaperBatch);
  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  auto batch = saloba::testing::related_batch(8, 4, 2048, 2048);
  EXPECT_NO_THROW(kernel->run(dev, batch, align::ScoringScheme{}));
}

TEST(Limits, WithoutNominalScalingSmallBatchesFit) {
  // Tests run with nominal = 0: the actual 4-pair batch fits everywhere.
  auto kernel = make_kernel("nvbio", 0);
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  auto batch = saloba::testing::related_batch(9, 4, 1024, 1024);
  EXPECT_NO_THROW(kernel->run(dev, batch, align::ScoringScheme{}));
}

TEST(Limits, SwSharpLaunchesTwicePerWavePerPair) {
  // One compute kernel plus one reduction kernel per anti-diagonal wave.
  auto kernel = make_kernel("sw#");
  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  // 300 bp -> 2x2 tiles of 256 -> 3 waves per pair.
  auto batch = saloba::testing::related_batch(10, 5, 300, 300);
  auto result = kernel->run(dev, batch, align::ScoringScheme{});
  EXPECT_EQ(result.launches, 5u * 3u * 2u);
  // 200 bp -> single tile -> 1 wave per pair.
  auto small = saloba::testing::related_batch(11, 5, 200, 200);
  EXPECT_EQ(kernel->run(dev, small, align::ScoringScheme{}).launches, 5u * 2u);
}

TEST(Limits, GasalAndSalobaHandle4096) {
  auto batch = saloba::testing::related_batch(12, 2, 4096, 4096);
  for (const char* name : {"gasal2", "saloba"}) {
    gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
    EXPECT_NO_THROW(make_kernel(name)->run(dev, batch, align::ScoringScheme{})) << name;
  }
}

TEST(Limits, KernelInfoMatchesTableTwo) {
  struct Row {
    const char* name;
    const char* parallelism;
    int bits;
  };
  const Row rows[] = {
      {"soap3-dp", "inter-query", 2}, {"cushaw2-gpu", "inter-query", 2},
      {"nvbio", "inter-query", 4},    {"gasal2", "inter-query", 4},
      {"sw#", "intra-query", 8},      {"adept", "intra-query", 8},
      {"saloba", "intra-query", 4},
  };
  for (const auto& row : rows) {
    auto kernel = make_kernel(row.name);
    EXPECT_EQ(kernel->info().parallelism, row.parallelism) << row.name;
    EXPECT_EQ(kernel->info().bitwidth, row.bits) << row.name;
  }
}

}  // namespace
}  // namespace saloba::kernels
