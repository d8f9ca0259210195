// The central verification suite: every simulated kernel must produce
// exactly the CPU reference's (score, ref_end, query_end) for every pair —
// the property that makes the performance counters trustworthy.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_reference.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::kernels {
namespace {

using align::ScoringScheme;

std::vector<align::AlignmentResult> reference_results(const seq::PairBatch& batch,
                                                      const ScoringScheme& s) {
  std::vector<align::AlignmentResult> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i] = align::smith_waterman(batch.refs[i], batch.queries[i], s);
  }
  return out;
}

struct Case {
  const char* kernel;
  std::size_t len;
};

class KernelEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(KernelEquivalence, EqualLengthBatchMatchesReference) {
  auto param = GetParam();
  auto kernel = make_kernel(param.kernel);
  if (param.len > kernel->info().max_len) GTEST_SKIP() << "beyond structural limit";

  gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
  ScoringScheme s;
  auto batch = saloba::testing::related_batch(1000 + param.len, 40, param.len, param.len);
  auto result = kernel->run(dev, batch, s);
  auto expected = reference_results(batch, s);
  ASSERT_EQ(result.results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.results[i], expected[i]) << kernel->info().name << " pair " << i;
  }
}

TEST_P(KernelEquivalence, UnequalAndRaggedLengthsMatchReference) {
  auto param = GetParam();
  auto kernel = make_kernel(param.kernel);
  if (param.len > kernel->info().max_len) GTEST_SKIP() << "beyond structural limit";

  gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
  ScoringScheme s;
  // Ragged batch: lengths vary from tiny up to `len` (the imbalance shape).
  auto batch = saloba::testing::imbalanced_batch(2000 + param.len, 50, 3, param.len);
  auto result = kernel->run(dev, batch, s);
  auto expected = reference_results(batch, s);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.results[i], expected[i]) << kernel->info().name << " pair " << i;
  }
}

TEST_P(KernelEquivalence, BandedBatchMatchesBandedReference) {
  // Banded variant of the matrix (Sec. VII-B): the same ragged batch under
  // band ∈ {1, 8, 32, huge} must match align::smith_waterman_banded at the
  // same band for every kernel — and the huge band, covering every table,
  // must also reproduce the full-table reference.
  auto param = GetParam();
  auto kernel = make_kernel(param.kernel);
  if (param.len > kernel->info().max_len) GTEST_SKIP() << "beyond structural limit";

  ScoringScheme s;
  auto batch = saloba::testing::imbalanced_batch(4000 + param.len, 20, 3, param.len);
  auto full = reference_results(batch, s);
  for (std::size_t band : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                           std::size_t{1} << 20}) {
    seq::PairBatch banded_batch = batch;
    banded_batch.default_band = band;
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = kernel->run(dev, banded_batch, s);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto expected = align::smith_waterman_banded(batch.refs[i], batch.queries[i], s,
                                                   band)
                          .result;
      EXPECT_EQ(result.results[i], expected)
          << kernel->info().name << " band " << band << " pair " << i;
      if (band >= std::max(batch.refs[i].size(), batch.queries[i].size())) {
        EXPECT_EQ(result.results[i], full[i])
            << kernel->info().name << " huge band, pair " << i;
      }
    }
  }
}

constexpr const char* kAllKernels[] = {"gasal2",      "nvbio",      "soap3-dp",
                                       "cushaw2-gpu", "sw#",        "adept",
                                       "saloba",      "saloba-intra", "saloba-lazy",
                                       "saloba-sw16", "saloba-sw32"};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* k : kAllKernels) {
    for (std::size_t len : {7u, 16u, 33u, 64u, 129u, 250u, 300u}) {
      cases.push_back(Case{k, len});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.kernel;
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_len" + std::to_string(info.param.len);
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllLengths, KernelEquivalence,
                         ::testing::ValuesIn(all_cases()), case_name);

// N handling: 4-bit and 8-bit kernels must be exact even with N bases;
// 2-bit kernels legitimately differ (they substitute N) but must never
// exceed the substituted-sequence reference.
TEST(KernelNHandling, ExactKernelsHandleN) {
  ScoringScheme s;
  auto batch = saloba::testing::related_batch(3000, 30, 90, 120, /*with_n=*/true);
  auto expected = reference_results(batch, s);
  for (const char* name : {"gasal2", "nvbio", "sw#", "adept", "saloba"}) {
    auto kernel = make_kernel(name);
    ASSERT_TRUE(kernel->info().exact_with_n);
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = kernel->run(dev, batch, s);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.results[i], expected[i]) << name << " pair " << i;
    }
  }
}

TEST(KernelNHandling, TwoBitKernelsMatchSubstitutedReference) {
  ScoringScheme s;
  auto batch = saloba::testing::related_batch(3001, 20, 80, 100, /*with_n=*/true);
  // Build the substituted batch (N -> A) the 2-bit kernels actually align.
  seq::PairBatch subst = batch;
  for (auto* seqs : {&subst.queries, &subst.refs}) {
    for (auto& v : *seqs) {
      for (auto& b : v) {
        if (b == seq::kBaseN) b = seq::kBaseA;
      }
    }
  }
  auto expected = reference_results(subst, s);
  for (const char* name : {"soap3-dp", "cushaw2-gpu"}) {
    auto kernel = make_kernel(name);
    ASSERT_FALSE(kernel->info().exact_with_n);
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = kernel->run(dev, batch, s);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.results[i], expected[i]) << name << " pair " << i;
    }
  }
}

TEST(KernelEdgeCases, EmptySequencesYieldEmptyAlignments) {
  ScoringScheme s;
  seq::PairBatch batch;
  batch.add({}, seq::encode_string("ACGT"));
  batch.add(seq::encode_string("ACGT"), {});
  batch.add(seq::encode_string("GATTACA"), seq::encode_string("GATTACA"));
  for (const char* name : {"gasal2", "saloba", "adept", "sw#"}) {
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = make_kernel(name)->run(dev, batch, s);
    EXPECT_EQ(result.results[0], align::AlignmentResult{}) << name;
    EXPECT_EQ(result.results[1], align::AlignmentResult{}) << name;
    EXPECT_EQ(result.results[2].score, 7) << name;
  }
}

TEST(KernelEdgeCases, SinglePairBatch) {
  ScoringScheme s;
  auto batch = saloba::testing::related_batch(3002, 1, 200, 200);
  auto expected = reference_results(batch, s);
  for (const char* name : {"gasal2", "saloba", "saloba-sw16"}) {
    gpusim::Device dev(gpusim::DeviceSpec::rtx3090());
    auto result = make_kernel(name)->run(dev, batch, s);
    EXPECT_EQ(result.results[0], expected[0]) << name;
  }
}

TEST(KernelEdgeCases, NonDefaultScoringScheme) {
  ScoringScheme s;
  s.match = 2;
  s.mismatch = 3;
  s.gap_open = 5;
  s.gap_extend = 2;
  auto batch = saloba::testing::related_batch(3003, 25, 130, 170);
  auto expected = reference_results(batch, s);
  for (const char* name : {"gasal2", "saloba", "adept", "sw#", "nvbio"}) {
    gpusim::Device dev(gpusim::DeviceSpec::gtx1650());
    auto result = make_kernel(name)->run(dev, batch, s);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.results[i], expected[i]) << name << " pair " << i;
    }
  }
}

TEST(KernelRegistry, AllNamesConstruct) {
  for (const auto& name : kernel_names()) {
    auto k = make_kernel(name);
    ASSERT_NE(k, nullptr);
    EXPECT_FALSE(k->info().name.empty());
  }
}

TEST(KernelRegistry, MakeAllKernelsTableTwoOrder) {
  auto kernels = make_all_kernels();
  ASSERT_EQ(kernels.size(), 7u);
  EXPECT_EQ(kernels.front()->info().name, "SOAP3-dp");
  EXPECT_EQ(kernels.back()->info().name, "SALoBa-sw8");
}

TEST(KernelRegistry, UnknownNameThrowsListingValidNames) {
  try {
    make_kernel("definitely-not-a-kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unknown kernel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("definitely-not-a-kernel"), std::string::npos) << msg;
    // The message lists every valid name so a typo is self-diagnosing.
    for (const auto& name : kernel_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " missing from: " << msg;
    }
  }
}

TEST(KernelRegistry, AliasesResolveToTheSameKernel) {
  EXPECT_EQ(make_kernel("soap3dp")->info().name, make_kernel("soap3-dp")->info().name);
  EXPECT_EQ(make_kernel("cushaw2")->info().name, make_kernel("cushaw2-gpu")->info().name);
  EXPECT_EQ(make_kernel("swsharp")->info().name, make_kernel("sw#")->info().name);
}

TEST(KernelRegistry, NamesKeepTableTwoOrder) {
  auto names = kernel_names();
  std::vector<std::string> expected = {"soap3-dp",    "cushaw2-gpu", "nvbio",
                                       "gasal2",      "sw#",         "adept",
                                       "saloba",      "saloba-intra", "saloba-lazy",
                                       "saloba-sw8",  "saloba-sw16", "saloba-sw32"};
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace saloba::kernels
