#include "seedext/kmer_index.hpp"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {
namespace {

TEST(KmerIndex, FindsAllOccurrences) {
  util::Xoshiro256 rng(131);
  auto text = saloba::testing::random_seq(rng, 3000);
  KmerIndex index(text, 11);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t pos = rng.below(text.size() - 11);
    std::span<const seq::BaseCode> kmer(text.data() + pos, 11);
    auto hits = index.lookup(kmer);
    // Naive expected positions.
    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i + 11 <= text.size(); ++i) {
      if (std::equal(kmer.begin(), kmer.end(), text.begin() + static_cast<std::ptrdiff_t>(i))) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    std::set<std::uint32_t> got(hits.begin(), hits.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(KmerIndex, NKmersNotIndexed) {
  auto text = seq::encode_string("ACGTNACGTACGT");
  KmerIndex index(text, 5);
  // Any window overlapping the N is absent.
  EXPECT_TRUE(index.lookup(seq::encode_string("CGTNA")).empty());
  EXPECT_FALSE(index.lookup(seq::encode_string("ACGTA")).empty());
}

TEST(KmerIndex, LookupOfAbsentKmer) {
  std::vector<seq::BaseCode> text(100, seq::kBaseA);
  KmerIndex index(text, 8);
  EXPECT_TRUE(index.lookup(seq::encode_string("CCCCCCCC")).empty());
  EXPECT_EQ(index.lookup(seq::encode_string("AAAAAAAA")).size(), 93u);
}

TEST(KmerIndex, PackKmerRejectsN) {
  auto kmer = seq::encode_string("ACGN");
  EXPECT_FALSE(KmerIndex::pack_kmer(kmer, 4).has_value());
  EXPECT_TRUE(KmerIndex::pack_kmer(seq::encode_string("ACGT"), 4).has_value());
}

TEST(KmerIndex, PackKmerIsInjectiveOnSmallK) {
  std::set<std::uint64_t> keys;
  std::vector<seq::BaseCode> kmer(4);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      for (int c = 0; c < 4; ++c)
        for (int d = 0; d < 4; ++d) {
          kmer = {static_cast<seq::BaseCode>(a), static_cast<seq::BaseCode>(b),
                  static_cast<seq::BaseCode>(c), static_cast<seq::BaseCode>(d)};
          keys.insert(*KmerIndex::pack_kmer(kmer, 4));
        }
  EXPECT_EQ(keys.size(), 256u);
}

TEST(KmerIndex, CountsAndSizes) {
  auto text = seq::encode_string("ACGTACGT");
  KmerIndex index(text, 4);
  EXPECT_EQ(index.k(), 4);
  EXPECT_EQ(index.indexed_positions(), 5u);
  // The four distinct 4-mers and their positions.
  auto positions = [&](const char* kmer) {
    auto hits = index.lookup(seq::encode_string(kmer));
    return std::vector<std::uint32_t>(hits.begin(), hits.end());
  };
  EXPECT_EQ(positions("ACGT"), (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(positions("CGTA"), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(positions("GTAC"), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(positions("TACG"), (std::vector<std::uint32_t>{3}));
}

/// Random genome with dispersed repeat copies and N runs, so buckets hold
/// runs of one key as well as distinct keys, and some windows are unindexed.
std::vector<seq::BaseCode> repetitive_genome(std::uint64_t seed, std::size_t len) {
  util::Xoshiro256 rng(seed);
  auto text = saloba::testing::random_seq(rng, len);
  for (int copy = 0; copy < 6; ++copy) {
    auto from = static_cast<std::ptrdiff_t>(rng.below(len - 200));
    auto to = static_cast<std::ptrdiff_t>(rng.below(len - 200));
    std::copy_n(text.begin() + from, 200, text.begin() + to);
  }
  for (int run = 0; run < 4; ++run) {
    auto at = static_cast<std::ptrdiff_t>(rng.below(len - 30));
    std::fill_n(text.begin() + at, 1 + rng.below(30), seq::kBaseN);
  }
  return text;
}

/// Every indexed k-mer's lookup against a brute-force position list (and
/// random k-mers the text lacks against an empty one), for an index whose
/// key suffixes are `suffix_bytes` wide. One batched lookup over all those
/// keys, plus keys in the first and the last bucket, must give each key the
/// list its single-key lookup gives.
void expect_lookups_match_brute_force(std::size_t len, int k, int suffix_bytes) {
  const auto text = repetitive_genome(len + static_cast<std::size_t>(k), len);
  KmerIndex index(text, k);
  ASSERT_EQ(index.geometry().suffix_bytes, suffix_bytes);

  std::map<std::vector<seq::BaseCode>, std::vector<std::uint32_t>> expected;
  const auto width = static_cast<std::size_t>(k);
  for (std::size_t i = 0; i + width <= text.size(); ++i) {
    std::vector<seq::BaseCode> kmer(text.begin() + static_cast<std::ptrdiff_t>(i),
                                    text.begin() + static_cast<std::ptrdiff_t>(i + width));
    if (std::ranges::all_of(kmer, [](seq::BaseCode b) { return b < seq::kBaseN; })) {
      expected[kmer].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::size_t positions = 0;
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_key;
  for (const auto& [kmer, want] : expected) {
    EXPECT_TRUE(std::ranges::equal(index.lookup(kmer), want)) << "k=" << k;
    positions += want.size();
    by_key[*KmerIndex::pack_kmer(kmer, k)] = want;
  }
  EXPECT_EQ(index.indexed_positions(), positions);

  std::vector<std::uint64_t> keys;
  for (const auto& [key, want] : by_key) keys.push_back(key);
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    auto kmer = saloba::testing::random_seq(rng, width);
    if (!expected.contains(kmer)) {
      EXPECT_TRUE(index.lookup(kmer).empty()) << "k=" << k;
      keys.push_back(*KmerIndex::pack_kmer(kmer, k));
    }
  }
  // Both ends of bucket 0 and of the last bucket, which reads the
  // directory's final slot.
  const int shift = index.geometry().suffix_bits;
  const std::uint64_t last_bucket = index.geometry().buckets() - 1;
  for (std::uint64_t key : {std::uint64_t{0}, (std::uint64_t{1} << shift) - 1,
                            last_bucket << shift, KmerIndex::kmer_mask(k)}) {
    keys.push_back(key);
  }
  std::vector<std::span<const std::uint32_t>> runs(keys.size());
  index.lookup_packed(keys, runs);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto want = by_key.find(keys[i]);
    EXPECT_TRUE(std::ranges::equal(runs[i], index.lookup_packed(keys[i])))
        << "k=" << k << " key " << keys[i];
    EXPECT_TRUE(want == by_key.end() ? runs[i].empty() : std::ranges::equal(runs[i], want->second))
        << "k=" << k << " key " << keys[i];
  }
}

TEST(KmerIndex, LookupMatchesBruteForceWithU16Suffixes) {
  expect_lookups_match_brute_force(40000, 12, 2);  // 10 suffix bits
  expect_lookups_match_brute_force(3000, 4, 2);    // every key bit is a bucket bit
}

TEST(KmerIndex, LookupMatchesBruteForceWithU32Suffixes) {
  expect_lookups_match_brute_force(40000, 16, 4);  // 18 suffix bits
}

TEST(KmerIndex, LookupMatchesBruteForceWithU64Suffixes) {
  expect_lookups_match_brute_force(3000, 31, 8);  // 52 suffix bits
}

TEST(KmerIndex, TextShorterThanK) {
  auto text = seq::encode_string("ACG");
  KmerIndex index(text, 8);
  EXPECT_EQ(index.indexed_positions(), 0u);
  EXPECT_TRUE(index.lookup(seq::encode_string("ACGTACGT")).empty());
  const std::vector<std::uint64_t> keys = {0, KmerIndex::kmer_mask(8)};
  KmerHits hits;
  index.lookup_packed(keys, hits);
  ASSERT_EQ(hits.lists.size(), keys.size());
  EXPECT_TRUE(hits.lists[0].empty() && hits.lists[1].empty());
}

TEST(KmerIndex, EmptyBatchedLookup) {
  auto text = seq::encode_string("ACGTACGTTTGCA");
  KmerIndex index(text, 4);
  index.lookup_packed(std::span<const std::uint64_t>{},
                      std::span<std::span<const std::uint32_t>>{});
  KmerHits hits;
  hits.lists.resize(3);
  index.lookup_packed(std::span<const std::uint64_t>{}, hits);
  EXPECT_TRUE(hits.lists.empty());
}

TEST(KmerIndexDeath, RejectsBadK) {
  auto text = seq::encode_string("ACGTACGT");
  EXPECT_DEATH(KmerIndex(text, 2), "k must be");
  EXPECT_DEATH(KmerIndex(text, 40), "k must be");
}

}  // namespace
}  // namespace saloba::seedext
