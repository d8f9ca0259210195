#include "seedext/seeding.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {

// Readable seeds in assertion messages.
void PrintTo(const Seed& s, std::ostream* os) {
  *os << "{qpos " << s.qpos << ", rpos " << s.rpos << ", len " << s.len << "}";
}

namespace {

void expect_seeds_are_exact_matches(const std::vector<Seed>& seeds,
                                    const std::vector<seq::BaseCode>& genome,
                                    const std::vector<seq::BaseCode>& read) {
  for (const Seed& s : seeds) {
    ASSERT_LE(s.qpos + s.len, read.size());
    ASSERT_LE(s.rpos + s.len, genome.size());
    for (std::uint32_t i = 0; i < s.len; ++i) {
      EXPECT_EQ(genome[s.rpos + i], read[s.qpos + i]);
      EXPECT_LT(genome[s.rpos + i], seq::kBaseN);  // N never seeds
    }
  }
}

void expect_seeds_maximal(const std::vector<Seed>& seeds,
                          const std::vector<seq::BaseCode>& genome,
                          const std::vector<seq::BaseCode>& read) {
  auto matches = [](seq::BaseCode a, seq::BaseCode b) { return a == b && a < 4; };
  for (const Seed& s : seeds) {
    if (s.qpos > 0 && s.rpos > 0) {
      EXPECT_FALSE(matches(genome[s.rpos - 1], read[s.qpos - 1])) << "extendable left";
    }
    if (s.qpos + s.len < read.size() && s.rpos + s.len < genome.size()) {
      EXPECT_FALSE(matches(genome[s.rpos + s.len], read[s.qpos + s.len]))
          << "extendable right";
    }
  }
}

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::vector<seq::BaseCode> read;
  std::size_t planted_pos;

  static Fixture make(std::uint64_t seed, std::size_t genome_len, std::size_t read_len,
                      double mutate_rate) {
    util::Xoshiro256 rng(seed);
    Fixture f;
    f.genome = saloba::testing::random_seq(rng, genome_len);
    f.planted_pos = rng.below(genome_len - read_len);
    f.read.assign(f.genome.begin() + static_cast<std::ptrdiff_t>(f.planted_pos),
                  f.genome.begin() + static_cast<std::ptrdiff_t>(f.planted_pos + read_len));
    f.read = saloba::testing::mutate(rng, f.read, mutate_rate);
    return f;
  }
};

TEST(KmerSeeding, FindsPlantedExactRead) {
  auto f = Fixture::make(141, 20000, 100, 0.0);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  ASSERT_FALSE(seeds.empty());
  bool found = false;
  for (const Seed& s : seeds) {
    found |= s.rpos == f.planted_pos && s.qpos == 0 && s.len == 100;
  }
  EXPECT_TRUE(found);
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
  expect_seeds_maximal(seeds, f.genome, f.read);
}

TEST(KmerSeeding, MutatedReadProducesShorterSeeds) {
  auto f = Fixture::make(142, 20000, 200, 0.03);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  ASSERT_FALSE(seeds.empty());
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
  expect_seeds_maximal(seeds, f.genome, f.read);
  for (const Seed& s : seeds) {
    EXPECT_GE(s.len, 19u);  // min_seed_len
  }
}

TEST(KmerSeeding, NoDuplicateSeeds) {
  auto f = Fixture::make(143, 10000, 150, 0.02);
  KmerIndex index(f.genome, 12);
  SeedingParams params;
  params.min_seed_len = 12;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> unique;
  for (const Seed& s : seeds) unique.insert({s.qpos, s.rpos, s.len});
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(KmerSeeding, RespectsMaxHits) {
  // Highly repetitive genome: hits beyond the cap are skipped entirely.
  std::vector<seq::BaseCode> genome;
  for (int i = 0; i < 500; ++i) {
    auto unit = seq::encode_string("ACGTACGTGGCCTTAA");
    genome.insert(genome.end(), unit.begin(), unit.end());
  }
  KmerIndex index(genome, 16);
  SeedingParams params;
  params.max_hits = 4;
  params.min_seed_len = 16;
  std::vector<seq::BaseCode> read = seq::encode_string("ACGTACGTGGCCTTAAACGTACGTGGCCTTAA");
  auto seeds = find_seeds(index, genome, read, params);
  EXPECT_TRUE(seeds.empty());  // every k-mer exceeds the cap
}

/// Brute-force k-mer seeding oracle, independent of KmerIndex and pack_kmer:
/// hit lists come from a std::map keyed by k-mer bases, every hit of every
/// sampled k-mer is extended to its maximal match, and the matches are
/// deduplicated and ordered through a std::set.
class SeedingOracle {
 public:
  SeedingOracle(const std::vector<seq::BaseCode>& genome, int k)
      : genome_(genome), k_(static_cast<std::size_t>(k)) {
    for (std::size_t i = 0; i + k_ <= genome.size(); ++i) {
      auto kmer = window(genome, i);
      if (std::ranges::all_of(kmer, [](seq::BaseCode b) { return b < seq::kBaseN; })) {
        hits_[kmer].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  std::vector<Seed> seeds(const std::vector<seq::BaseCode>& read,
                          const SeedingParams& params) const {
    auto same = [](seq::BaseCode a, seq::BaseCode b) { return a == b && a < seq::kBaseN; };
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> found;
    for (std::size_t q = 0; q + k_ <= read.size(); q += static_cast<std::size_t>(params.stride)) {
      auto it = hits_.find(window(read, q));
      if (it == hits_.end() || it->second.size() > params.max_hits) continue;
      for (std::uint32_t r : it->second) {
        std::size_t qs = q, rs = r, len = k_;
        while (qs > 0 && rs > 0 && same(read[qs - 1], genome_[rs - 1])) --qs, --rs, ++len;
        while (qs + len < read.size() && rs + len < genome_.size() &&
               same(read[qs + len], genome_[rs + len])) {
          ++len;
        }
        if (len >= static_cast<std::size_t>(params.min_seed_len)) {
          found.emplace(static_cast<std::uint32_t>(qs), static_cast<std::uint32_t>(rs),
                        static_cast<std::uint32_t>(len));
        }
      }
    }
    std::vector<Seed> out;
    for (auto [qpos, rpos, len] : found) out.push_back(Seed{qpos, rpos, len});
    return out;
  }

 private:
  std::vector<seq::BaseCode> window(const std::vector<seq::BaseCode>& text,
                                    std::size_t at) const {
    return {text.begin() + static_cast<std::ptrdiff_t>(at),
            text.begin() + static_cast<std::ptrdiff_t>(at + k_)};
  }

  const std::vector<seq::BaseCode>& genome_;
  std::size_t k_;
  std::map<std::vector<seq::BaseCode>, std::vector<std::uint32_t>> hits_;
};

/// Oracle genome: random bases with N runs, dispersed repeat copies (a few
/// substitutions each) and planted 1-6 bp tandem repeats, whose maximal
/// matches sit on many nearby diagonals. `tandem` receives each tandem
/// run's [begin, end), and `copies`, if given, each repeat copy's.
std::vector<seq::BaseCode> oracle_genome(
    util::Xoshiro256& rng, std::size_t len,
    std::vector<std::pair<std::size_t, std::size_t>>& tandem,
    std::vector<std::pair<std::size_t, std::size_t>>* copies = nullptr) {
  auto g = saloba::testing::random_seq(rng, len);
  auto at = [&](std::size_t span) { return rng.below(len - span); };
  for (int copy = 0; copy < 8; ++copy) {
    const std::size_t span = 80 + rng.below(200);
    const std::size_t from = at(span), to = at(span);
    for (std::size_t i = 0; i < span; ++i) {
      g[to + i] = rng.bernoulli(0.02) ? static_cast<seq::BaseCode>(rng.below(4)) : g[from + i];
    }
    if (copies != nullptr) copies->emplace_back(to, to + span);
  }
  for (std::size_t period = 1; period <= 6; ++period) {
    const std::size_t span = 40 + rng.below(120);
    const std::size_t begin = at(span);
    for (std::size_t i = period; i < span; ++i) g[begin + i] = g[begin + i - period];
    tandem.emplace_back(begin, begin + span);
  }
  for (int run = 0; run < 5; ++run) {
    const std::size_t span = 1 + rng.below(25);
    std::fill_n(g.begin() + static_cast<std::ptrdiff_t>(at(span)), span, seq::kBaseN);
  }
  return g;
}

/// Oracle reads: mutated genome windows (some with an N), reads from inside
/// the tandem runs, and unrelated random reads.
std::vector<std::vector<seq::BaseCode>> oracle_reads(
    util::Xoshiro256& rng, const std::vector<seq::BaseCode>& genome,
    const std::vector<std::pair<std::size_t, std::size_t>>& tandem, std::size_t count) {
  std::vector<std::vector<seq::BaseCode>> reads;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<seq::BaseCode> read;
    if (i % 5 < 2) {
      const std::size_t len = 30 + rng.below(170);
      const std::size_t from = rng.below(genome.size() - len);
      read.assign(genome.begin() + static_cast<std::ptrdiff_t>(from),
                  genome.begin() + static_cast<std::ptrdiff_t>(from + len));
      read = saloba::testing::mutate(rng, read, 0.03);
      if (i % 5 == 1) read[rng.below(len)] = seq::kBaseN;
    } else if (i % 5 < 4) {
      const auto [begin, end] = tandem[rng.below(tandem.size())];
      const std::size_t len = 32 + rng.below(end - begin - 31);
      const std::size_t from = begin + rng.below(end - begin - len + 1);
      read.assign(genome.begin() + static_cast<std::ptrdiff_t>(from),
                  genome.begin() + static_cast<std::ptrdiff_t>(from + len));
    } else {
      read = saloba::testing::random_seq(rng, 40 + rng.below(100));
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

TEST(KmerSeeding, MatchesBruteForceOracleOnMonolithicAndShardedIndex) {
  // Both genome sizes times k = 4, 12, 16, 31 give all three key-suffix
  // widths; stride 1/3 and max_hits 1/4/32/uncapped cover the sampling and
  // repeat-filter rules. 2 x 4 x 2 x 4 x 50 = 3,200 cases.
  std::size_t cases = 0, seeds_total = 0;
  util::Xoshiro256 rng(160);
  for (std::size_t genome_len : {std::size_t{3000}, std::size_t{40000}}) {
    std::vector<std::pair<std::size_t, std::size_t>> tandem;
    const auto genome = oracle_genome(rng, genome_len, tandem);
    const auto reads = oracle_reads(rng, genome, tandem, 50);
    for (int k : {4, 12, 16, 31}) {
      KmerIndex mono(genome, k);
      IndexShardingOptions sharding;
      sharding.shards = 3;
      ShardedKmerIndex sharded(genome, k, sharding);
      SeedingOracle oracle(genome, k);
      for (int stride : {1, 3}) {
        for (std::size_t max_hits : {std::size_t{1}, std::size_t{4}, std::size_t{32},
                                     std::numeric_limits<std::size_t>::max()}) {
          for (std::size_t r = 0; r < reads.size(); ++r) {
            SeedingParams params;
            params.stride = stride;
            params.max_hits = max_hits;
            params.min_seed_len = r % 2 == 0 ? k : k + 6;
            const auto want = oracle.seeds(reads[r], params);
            const auto got = find_seeds(mono, genome, reads[r], params);
            ASSERT_EQ(got, want) << "genome " << genome_len << " k=" << k << " stride="
                                 << stride << " max_hits=" << max_hits << " read " << r;
            ASSERT_EQ(find_seeds(sharded, genome, reads[r], params), want)
                << "sharded, genome " << genome_len << " k=" << k << " read " << r;
            ++cases;
            seeds_total += want.size();
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3200u);
  EXPECT_GT(seeds_total, 10000u);  // the comparison is not vacuous
}

TEST(KmerSeeding, MatchesBruteForceOracleOnReadsLongerThanALookupBlock) {
  // 600-3,000 bp reads carry 200-3,000 sampled keys, so seeding crosses one
  // or more lookup-block boundaries, with matches extended in one block
  // still live in the next. Every other read spans a whole repeat copy,
  // whose k-mers hit both copies.
  util::Xoshiro256 rng(161);
  std::vector<std::pair<std::size_t, std::size_t>> tandem, copies;
  const auto genome = oracle_genome(rng, 40000, tandem, &copies);
  std::vector<std::vector<seq::BaseCode>> reads;
  for (std::size_t r = 0; r < 24; ++r) {
    const std::size_t len = 600 + rng.below(2401);
    std::size_t from = rng.below(genome.size() - len);
    if (r % 2 == 0) {
      const auto [begin, end] = copies[r / 2 % copies.size()];
      const std::size_t lowest = end > len ? end - len : 0;
      from = std::min(lowest + rng.below(begin - lowest + 1), genome.size() - len);
    }
    std::vector<seq::BaseCode> read(genome.begin() + static_cast<std::ptrdiff_t>(from),
                                    genome.begin() + static_cast<std::ptrdiff_t>(from + len));
    read = saloba::testing::mutate(rng, read, 0.03);
    if (r % 3 == 0) read[rng.below(read.size())] = seq::kBaseN;
    reads.push_back(std::move(read));
  }
  std::size_t seeds_total = 0;
  for (int k : {12, 16, 31}) {
    KmerIndex mono(genome, k);
    IndexShardingOptions sharding;
    sharding.shards = 3;
    ShardedKmerIndex sharded(genome, k, sharding);
    SeedingOracle oracle(genome, k);
    for (int stride : {1, 3}) {
      for (std::size_t r = 0; r < reads.size(); ++r) {
        SeedingParams params;
        params.stride = stride;
        params.min_seed_len = r % 2 == 0 ? k : k + 6;
        const auto want = oracle.seeds(reads[r], params);
        ASSERT_EQ(find_seeds(mono, genome, reads[r], params), want)
            << "k=" << k << " stride=" << stride << " read " << r;
        ASSERT_EQ(find_seeds(sharded, genome, reads[r], params), want)
            << "sharded, k=" << k << " stride=" << stride << " read " << r;
        seeds_total += want.size();
      }
    }
  }
  EXPECT_GT(seeds_total, 1000u);  // the comparison is not vacuous
}

TEST(Seeding, RejectsStrideBelowOne) {
  auto f = Fixture::make(147, 5000, 100, 0.0);
  KmerIndex mono(f.genome, 16);
  IndexShardingOptions sharding;
  sharding.shards = 3;
  ShardedKmerIndex sharded(f.genome, 16, sharding);
  for (int stride : {0, -3}) {
    SeedingParams params;
    params.stride = stride;
    for (bool use_sharded : {false, true}) {
      try {
        if (use_sharded) {
          find_seeds(sharded, f.genome, f.read, params);
        } else {
          find_seeds(mono, f.genome, f.read, params);
        }
        ADD_FAILURE() << "stride " << stride << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("SeedingParams::stride"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Seeding, ShortReadYieldsNothing) {
  auto f = Fixture::make(146, 5000, 100, 0.0);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  std::vector<seq::BaseCode> tiny = seq::encode_string("ACGT");
  EXPECT_TRUE(find_seeds(index, f.genome, tiny, params).empty());
}

TEST(Seeding, SeedDiagonalHelper) {
  Seed s{10, 100, 20};
  EXPECT_EQ(s.diagonal(), 90);
}

}  // namespace
}  // namespace saloba::seedext
