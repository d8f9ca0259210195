// seedext::SharedIndex coverage: on-disk round trips (mmap load bit-identical
// to the in-memory build, file bytes pinned), malformed-file rejection (every
// header bit), the in-process registry (dedup, stats, weak lifetime,
// concurrent cold starts of one path making one index, a failed cold start
// reaching every acquirer and failing before it builds), reference
// sharding (merged lookups and seeds bit-identical to the monolithic index,
// the 32-bit position limit), and end-to-end SAM byte-identity through
// ReadMapper for the mmap-backed and sharded seeding paths.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>

#include "core/aligner.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/sam_output.hpp"
#include "seedext/seeding.hpp"
#include "seedext/shared_index.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"
#include "../support/test_support.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace saloba::seedext {
namespace {

namespace fs = std::filesystem;

/// A unique path under the test temp dir (files are cleaned up by gtest).
std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) /
          (std::string("saloba_index_") + name + ".idx"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fuzz genome with embedded N runs (unindexable stretches) so round trips
/// cover keys that vanish near shard/window boundaries.
std::vector<seq::BaseCode> fuzz_genome(std::uint64_t seed, std::size_t len) {
  util::Xoshiro256 rng(seed);
  auto g = testing::random_seq_with_n(rng, len, 0.01);
  // A couple of contiguous N runs, including one at the very start.
  for (std::size_t i = 0; i < std::min<std::size_t>(7, len); ++i) g[i] = seq::kBaseN;
  if (len > 200) {
    for (std::size_t i = len / 2; i < len / 2 + 40; ++i) g[i] = seq::kBaseN;
  }
  return g;
}

void expect_same_kmer_arrays(const KmerIndex& a, const KmerIndex& b) {
  ASSERT_EQ(a.k(), b.k());
  EXPECT_TRUE(std::ranges::equal(a.directory(), b.directory()));
  EXPECT_TRUE(std::ranges::equal(a.suffixes(), b.suffixes()));
  EXPECT_TRUE(std::ranges::equal(a.entries(), b.entries()));
}

TEST(SharedIndexRoundTrip, KmerBitIdenticalAcrossKBoundaries) {
  // k-range boundaries (kMinK, a typical k, kMaxK) on fuzzed genomes with
  // N runs: the mmap-loaded arrays must equal the built ones verbatim, and
  // so must every lookup and seed list.
  for (int k : {KmerIndex::kMinK, 16, KmerIndex::kMaxK}) {
    auto genome = fuzz_genome(11 + static_cast<std::uint64_t>(k), 20000);
    auto built = SharedIndex::build(genome, k);
    std::string path = temp_path("roundtrip_k" + std::to_string(k));
    write_shared_index(path, genome, built->kmer());

    auto loaded = SharedIndex::load(path, genome, k);
    EXPECT_TRUE(loaded->mmap_backed());
    EXPECT_FALSE(built->mmap_backed());
    EXPECT_EQ(loaded->genome_bases(), genome.size());
    EXPECT_EQ(loaded->genome_checksum(), built->genome_checksum());
    expect_same_kmer_arrays(built->kmer(), loaded->kmer());

    util::Xoshiro256 rng(99);
    SeedingParams params;
    params.min_seed_len = k;
    for (int trial = 0; trial < 50; ++trial) {
      std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
      std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
      auto a = built->kmer().lookup(kmer);
      auto b = loaded->kmer().lookup(kmer);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
    for (int trial = 0; trial < 10; ++trial) {
      std::size_t pos = rng.below(genome.size() - 120);
      std::vector<seq::BaseCode> read(genome.begin() + static_cast<std::ptrdiff_t>(pos),
                                      genome.begin() + static_cast<std::ptrdiff_t>(pos + 120));
      read = testing::mutate(rng, read, 0.02);
      EXPECT_EQ(find_seeds(built->kmer(), genome, read, params),
                find_seeds(loaded->kmer(), genome, read, params));
    }
  }
}

TEST(SharedIndexRoundTrip, FileBytesArePinned) {
  // The on-disk format is a contract with every cache file already written:
  // the bytes for one fixed genome and k must not move.
  seq::GenomeParams gp;
  gp.length = 4096;
  gp.seed = 7;
  const auto genome = seq::generate_genome(gp);
  const std::string path = temp_path("pinned");
  save_shared_index(path, genome, 12);
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 28624u);
  EXPECT_EQ(util::fnv1a64(std::as_bytes(std::span<const char>(bytes.data(), bytes.size()))),
            0x0d72d472d2d005b7ull);
  EXPECT_EQ(SharedIndex::load(path, genome, 12)->kmer().indexed_positions(),
            KmerIndex(genome, 12).indexed_positions());
}

struct RejectionFixture : ::testing::Test {
  std::vector<seq::BaseCode> genome = fuzz_genome(47, 4000);
  int k = 14;
  std::string path = temp_path("rejection");

  void SetUp() override { save_shared_index(path, genome, k); }
};

TEST_F(RejectionFixture, RejectsTruncatedFile) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 200u);
  spew(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
  // Shorter than the header entirely.
  spew(path, bytes.substr(0, 40));
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
  // A strided sample of shorter lengths, from the empty file on, and one
  // byte short.
  for (std::size_t len = 0; len < bytes.size(); len += 97) {
    spew(path, bytes.substr(0, len));
    EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "length " << len;
  }
  spew(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsCorruptedPayloadByte) {
  const std::string original = slurp(path);
  ASSERT_GT(original.size(), sizeof(IndexFileHeader) + 16);
  std::string bytes = original;
  bytes[sizeof(IndexFileHeader) + 11] ^= 0x40;  // one flipped payload bit
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
  // A seeded sample of single-bit flips across the whole payload.
  util::Xoshiro256 rng(53);
  const std::size_t payload_bits = (original.size() - sizeof(IndexFileHeader)) * 8;
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t bit = rng.below(payload_bits);
    bytes = original;
    bytes[sizeof(IndexFileHeader) + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    spew(path, bytes);
    EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "payload bit " << bit;
  }
}

TEST_F(RejectionFixture, RejectsTrailingGarbage) {
  const std::string original = slurp(path);
  spew(path, original + std::string(16, '\x7f'));
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
  spew(path, original + '\0');
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsEverySingleBitHeaderFlip) {
  // Every header field is checked: the section flags must be exactly the
  // k-mer bit and the reserved fields zero, so no flipped bit of the 96
  // header bytes loads.
  const std::string original = slurp(path);
  EXPECT_NO_THROW(SharedIndex::load(path, genome, k));
  for (std::size_t bit = 0; bit < sizeof(IndexFileHeader) * 8; ++bit) {
    std::string bytes = original;
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    spew(path, bytes);
    EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "header bit " << bit;
  }
  // The FM-index section bit (flags bit 1) is named in the rejection.
  std::string fm = original;
  fm[offsetof(IndexFileHeader, flags)] |= 2;
  spew(path, fm);
  try {
    SharedIndex::load(path, genome, k);
    ADD_FAILURE() << "a file flagged with an FM-index section loaded";
  } catch (const IndexFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("FM-index section"), std::string::npos) << e.what();
  }
}

TEST_F(RejectionFixture, RejectsWrongMagic) {
  std::string bytes = slurp(path);
  bytes[0] = 'X';
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsWrongVersion) {
  std::string bytes = slurp(path);
  bytes[8] = static_cast<char>(kIndexFormatVersion + 1);  // header version field
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsVersion1File) {
  // Version 1 held a keys/offsets k-mer section; this build reads only the
  // bucketed version 2 layout.
  std::string bytes = slurp(path);
  bytes[8] = 1;  // header version field
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsMalformedDirectoryWithValidChecksum) {
  // A crafted directory would make lookups read outside the entry array,
  // and a crafted entry seeding read outside the genome, so the loader must
  // reject both even when the payload checksum holds. The directory is the
  // payload's first section.
  const std::string original = slurp(path);
  IndexFileHeader h;
  std::memcpy(&h, original.data(), sizeof(h));
  const std::size_t last = h.kmer_buckets;
  auto at = [](std::size_t i) { return sizeof(IndexFileHeader) + i * sizeof(std::uint32_t); };
  auto get = [&](std::size_t i) {
    std::uint32_t v;
    std::memcpy(&v, original.data() + at(i), sizeof(v));
    return v;
  };
  auto set = [&](std::string& bytes, std::size_t i, std::uint32_t v) {
    std::memcpy(bytes.data() + at(i), &v, sizeof(v));
  };
  // Writes `bytes` with the payload checksum recomputed over the edit.
  auto spew_rechecksummed = [&](std::string bytes) {
    const std::uint64_t checksum = util::fnv1a64(std::as_bytes(std::span<const char>(
        bytes.data() + sizeof(IndexFileHeader), bytes.size() - sizeof(IndexFileHeader))));
    std::memcpy(bytes.data() + offsetof(IndexFileHeader, payload_checksum), &checksum,
                sizeof(checksum));
    spew(path, bytes);
  };

  spew_rechecksummed(original);  // the rewrite alone changes nothing
  EXPECT_NO_THROW(SharedIndex::load(path, genome, k));

  std::size_t i = 0;
  while (i + 1 < last && get(i) == get(i + 1)) ++i;
  ASSERT_LT(get(i), get(i + 1));
  std::string swapped = original;
  set(swapped, i, get(i + 1));
  set(swapped, i + 1, get(i));
  spew_rechecksummed(swapped);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "decreasing";

  std::string offset_start = original;
  set(offset_start, 0, 1);
  spew_rechecksummed(offset_start);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "start != 0";

  std::string short_end = original;
  set(short_end, last, get(last) - 1);
  spew_rechecksummed(short_end);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "end != entries";

  // Entry positions: seeding reads the genome around each one, so every
  // entry must be a k-mer start inside the reference. The u32 entries are
  // the payload's last section, padded to 8 bytes.
  const std::size_t entries = h.kmer_entries;
  const std::size_t entries_at =
      original.size() - ((entries * sizeof(std::uint32_t) + 7) & ~std::size_t{7});
  auto entry = [&](const std::string& bytes, std::size_t e) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + entries_at + e * sizeof(v), sizeof(v));
    return v;
  };
  auto set_entry = [&](std::string& bytes, std::size_t e, std::uint32_t v) {
    std::memcpy(bytes.data() + entries_at + e * sizeof(v), &v, sizeof(v));
  };
  ASSERT_GT(entries, 0u);
  const auto kmer_starts = static_cast<std::uint32_t>(genome.size() - k + 1);
  std::string shifted = original;
  for (std::size_t e = 0; e < entries; ++e) {
    set_entry(shifted, e, entry(original, e) + (1u << 20));
  }
  spew_rechecksummed(shifted);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "entries + 2^20";
  // A mapper routed through the file refuses it before anything seeds.
  MapperParams params;
  params.k = k;
  params.index_path = path;
  EXPECT_THROW(ReadMapper(genome, params), IndexFormatError);

  std::string one_past = original;
  set_entry(one_past, 0, kmer_starts);
  spew_rechecksummed(one_past);
  EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "one past";
  std::string last_start = original;
  set_entry(last_start, 0, kmer_starts - 1);
  spew_rechecksummed(last_start);
  EXPECT_NO_THROW(SharedIndex::load(path, genome, k)) << "the last k-mer start";

  // The checksum's word loop takes the largest entry, two entries to a
  // word: an entry in a word's high half and the last entry, which shares
  // its word with the padding, are checked too, and the padding is not an
  // entry.
  ASSERT_EQ(entries % 2, 1u);
  for (std::size_t e : {std::size_t{1}, entries - 1}) {
    std::string past = original;
    set_entry(past, e, kmer_starts);
    spew_rechecksummed(past);
    EXPECT_THROW(SharedIndex::load(path, genome, k), IndexFormatError) << "entry " << e;
  }
  std::string padded = original;
  set_entry(padded, entries, 0xFFFFFFFFu);
  spew_rechecksummed(padded);
  EXPECT_NO_THROW(SharedIndex::load(path, genome, k)) << "nonzero padding";
}

TEST_F(RejectionFixture, RejectsDifferentGenome) {
  util::Xoshiro256 rng(3);
  auto other = testing::mutate(rng, genome, 0.01);
  EXPECT_THROW(SharedIndex::load(path, other, k), IndexFormatError);
  // Same content, different length.
  auto shorter = genome;
  shorter.pop_back();
  EXPECT_THROW(SharedIndex::load(path, shorter, k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsWrongK) {
  EXPECT_THROW(SharedIndex::load(path, genome, k + 1), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsMissingFile) {
  EXPECT_THROW(SharedIndex::load(temp_path("never_written"), genome, k), IndexFormatError);
}

TEST(SharedIndexRegistry, DeduplicatesLiveInstancesAndRebuildsAfterExpiry) {
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  auto genome = fuzz_genome(61, 5000);

  auto a = reg.acquire_memory(genome, 16);
  auto b = reg.acquire_memory(genome, 16);
  EXPECT_EQ(a.get(), b.get());  // one physical index, two handles
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().hits, 1u);

  // Different k is a different index.
  auto c = reg.acquire_memory(genome, 18);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(reg.stats().builds, 2u);

  // Weak lifetime: dropping every handle frees the index; the next acquire
  // builds anew rather than resurrecting a dead pointer.
  a.reset();
  b.reset();
  auto d = reg.acquire_memory(genome, 16);
  EXPECT_EQ(reg.stats().builds, 3u);
  EXPECT_GE(reg.live_entries(), 2u);
}

TEST(SharedIndexRegistry, FileAcquireBuildsOnceThenMapsAndShares) {
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  auto genome = fuzz_genome(71, 5000);
  const int k = 16;
  std::string path = temp_path("registry_file");
  fs::remove(path);

  // Missing file: build + save + load (build-once cold start).
  auto a = reg.acquire_file(path, genome, k);
  EXPECT_TRUE(a->mmap_backed());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().loads, 1u);

  // Live mapping is shared, not re-mapped.
  auto b = reg.acquire_file(path, genome, k);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(reg.stats().hits, 1u);

  // After every handle dies, the warm path is a pure load — no rebuild.
  a.reset();
  b.reset();
  auto c = reg.acquire_file(path, genome, k);
  EXPECT_TRUE(c->mmap_backed());
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().loads, 2u);
}

TEST(SharedIndexRegistry, ConcurrentColdStartsOfOnePathAllSucceed) {
  // Acquirers that cold-start one path at once make it once: the first
  // builds, saves and maps it while the others wait for its handle. Every
  // acquire gets the same complete index, the registry counts one build,
  // one load and a hit per waiter, and no temp file is left behind.
  auto& reg = IndexRegistry::instance();
  const auto genome = fuzz_genome(79, 64 * 1024);
  const int k = 14;
  const KmerIndex mono(genome, k);
  const std::string path = temp_path("cold_race");
  const std::string temp_prefix = fs::path(path).filename().string() + ".tmp";
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;

  util::Xoshiro256 rng(37);
  std::vector<std::vector<seq::BaseCode>> reads;
  for (int r = 0; r < 5; ++r) {
    const std::size_t pos = rng.below(genome.size() - 150);
    reads.push_back(testing::mutate(
        rng,
        std::vector<seq::BaseCode>(genome.begin() + static_cast<std::ptrdiff_t>(pos),
                                   genome.begin() + static_cast<std::ptrdiff_t>(pos + 150)),
        0.02));
  }
  const SeedingParams params;

  for (int round = 0; round < kRounds; ++round) {
    fs::remove(path);
    reg.reset_stats();
    std::vector<std::shared_ptr<const SharedIndex>> handles(kThreads);
    std::vector<std::string> errors(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        try {
          handles[static_cast<std::size_t>(t)] = reg.acquire_file(path, genome, k);
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(t)] = e.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      ASSERT_TRUE(errors[ti].empty()) << "round " << round << ", thread " << t << ": "
                                      << errors[ti];
      ASSERT_NE(handles[ti], nullptr);
      EXPECT_EQ(handles[ti].get(), handles[0].get()) << "round " << round << ", thread " << t;
      EXPECT_TRUE(handles[ti]->mmap_backed());
      for (const auto& read : reads) {
        EXPECT_EQ(find_seeds(handles[ti]->kmer(), genome, read, params),
                  find_seeds(mono, genome, read, params))
            << "round " << round << ", thread " << t;
      }
    }
    const IndexRegistryStats stats = reg.stats();
    EXPECT_EQ(stats.builds, 1u) << "round " << round;
    EXPECT_EQ(stats.loads, 1u) << "round " << round;
    EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1)) << "round " << round;
    for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
      EXPECT_FALSE(entry.path().filename().string().starts_with(temp_prefix))
          << "left behind: " << entry.path();
    }
  }  // every handle dies here, so the next round cold-starts again
}

TEST(SharedIndexRegistry, FailedColdStartReachesEveryAcquirerAndRetries) {
  // A cold start whose save fails (its directory does not exist) must fail
  // every acquirer of the key, register nothing, and leave the key free, so
  // once the directory exists the same key builds, saves and maps.
  auto& reg = IndexRegistry::instance();
  const auto genome = fuzz_genome(83, 64 * 1024);
  const int k = 14;
  const fs::path dir = fs::path(::testing::TempDir()) / "saloba_index_missing_dir";
  fs::remove_all(dir);
  const std::string path = (dir / "cold.idx").string();
  constexpr int kThreads = 4;

  reg.reset_stats();
  std::vector<std::string> errors(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        reg.acquire_file(path, genome, k);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(errors[static_cast<std::size_t>(t)].find("cannot write index temp file"),
              std::string::npos)
        << "thread " << t << ": " << errors[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(reg.stats().builds, 0u);
  EXPECT_EQ(reg.stats().loads, 0u);
  EXPECT_EQ(reg.stats().hits, 0u);

  fs::create_directories(dir);
  auto handle = reg.acquire_file(path, genome, k);
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(handle->mmap_backed());
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().loads, 1u);
  handle.reset();
  fs::remove_all(dir);
}

TEST(SharedIndexRegistry, ColdStartIntoAMissingDirectoryFailsBeforeBuilding) {
  // The temp file opens before the k-mer build, so a cold start that cannot
  // write its file fails in a small fraction of the build it would waste.
  const auto genome = fuzz_genome(89, std::size_t{1} << 21);
  const int k = 14;
  const fs::path dir = fs::path(::testing::TempDir()) / "saloba_index_missing_dir_early";
  fs::remove_all(dir);
  const std::string path = (dir / "cold.idx").string();
  const auto min_ms = [](int reps, const auto& run) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      const util::Timer timer;
      run();
      best = r == 0 ? timer.millis() : std::min(best, timer.millis());
    }
    return best;
  };
  const double build_ms = min_ms(2, [&] { EXPECT_GT(KmerIndex(genome, k).entries().size(), 0u); });
  const double fail_ms = min_ms(3, [&] {
    EXPECT_THROW(IndexRegistry::instance().acquire_file(path, genome, k), std::runtime_error);
  });
  EXPECT_LT(fail_ms * 10, build_ms)
      << "failed cold start " << fail_ms << " ms against a " << build_ms << " ms build";
  EXPECT_FALSE(fs::exists(dir));
}

TEST(ShardedIndex, LookupBitIdenticalToMonolithicAcrossShardCounts) {
  auto genome = fuzz_genome(83, 30000);
  const int k = 16;
  KmerIndex mono(genome, k);
  util::Xoshiro256 rng(17);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{7}, std::size_t{16}}) {
    IndexShardingOptions options;
    options.shards = shards;
    ShardedKmerIndex sharded(genome, k, options);
    ASSERT_EQ(sharded.shards().size(), shards);
    // Windows tile the genome: owned ranges are disjoint and exhaustive.
    std::size_t covered = 0;
    for (const auto& s : sharded.shards()) {
      EXPECT_EQ(s.begin, covered);
      EXPECT_LE(s.end, s.text_end);
      EXPECT_LE(s.text_end, std::min(genome.size(), s.end + static_cast<std::size_t>(k) - 1));
      covered = s.end;
    }
    EXPECT_EQ(covered, genome.size());

    for (int trial = 0; trial < 200; ++trial) {
      std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
      std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
      auto want = mono.lookup(kmer);
      auto got = sharded.lookup(kmer);
      ASSERT_EQ(got.size(), want.size()) << shards << " shards, kmer at " << pos;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
    }

    SeedingParams params;
    for (int trial = 0; trial < 10; ++trial) {
      std::size_t pos = rng.below(genome.size() - 150);
      std::vector<seq::BaseCode> read(genome.begin() + static_cast<std::ptrdiff_t>(pos),
                                      genome.begin() + static_cast<std::ptrdiff_t>(pos + 150));
      read = testing::mutate(rng, read, 0.03);
      EXPECT_EQ(find_seeds(mono, genome, read, params),
                find_seeds(sharded, genome, read, params));
    }
  }
}

TEST(ShardedIndex, TinyGenomeAndOverAsking) {
  // More shards than bases: the count clamps, nothing crashes, lookups agree.
  util::Xoshiro256 rng(29);
  auto genome = testing::random_seq(rng, 10);
  const int k = 4;
  KmerIndex mono(genome, k);
  IndexShardingOptions options;
  options.shards = 64;
  ShardedKmerIndex sharded(genome, k, options);
  EXPECT_LE(sharded.shards().size(), genome.size());
  for (std::size_t pos = 0; pos + k <= genome.size(); ++pos) {
    std::span<const seq::BaseCode> kmer(genome.data() + pos, k);
    auto want = mono.lookup(kmer);
    auto got = sharded.lookup(kmer);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  }
}

/// `keys` (which `genome` may lack) and then every key of `genome` through
/// one batched sharded lookup, each list against the monolithic lookup of
/// its key.
void expect_batched_lookups_match_monolithic(const std::vector<seq::BaseCode>& genome, int k,
                                             std::size_t shards,
                                             std::vector<std::uint64_t> keys) {
  KmerIndex mono(genome, k);
  IndexShardingOptions options;
  options.shards = shards;
  ShardedKmerIndex sharded(genome, k, options);
  EXPECT_EQ(sharded.shards().size(), std::min(shards, genome.size()));
  KmerIndex::for_each_key(genome, k, [&](std::uint64_t key, std::size_t) { keys.push_back(key); });
  KmerHits hits;
  hits.merged.assign(5, 7);  // stale contents must not leak into the lists
  sharded.lookup_packed(keys, hits);
  ASSERT_EQ(hits.lists.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(hits.lists[i], mono.lookup_packed(keys[i])))
        << sharded.shards().size() << " shards, key " << keys[i];
  }
}

TEST(ShardedIndex, BatchedLookupMatchesMonolithicForEveryKey) {
  // Three shards over a genome whose k-mers spanning both shard boundaries
  // (they start within k - 1 bases before a boundary, so they extend into
  // the overlap) are also planted in the other shards: their merged lists
  // take positions from several shards.
  const int k = 16;
  auto genome = fuzz_genome(211, 30000);
  for (std::size_t boundary : {std::size_t{10000}, std::size_t{20000}}) {
    const auto from = static_cast<std::ptrdiff_t>(boundary - static_cast<std::size_t>(k) + 1);
    for (std::size_t to : {std::size_t{3000}, std::size_t{15000}, std::size_t{26000}}) {
      std::copy_n(genome.begin() + from, 2 * k - 2,
                  genome.begin() + static_cast<std::ptrdiff_t>(to + boundary / 100));
    }
  }
  util::Xoshiro256 rng(19);
  std::vector<std::uint64_t> random_keys;
  for (int trial = 0; trial < 300; ++trial) {
    random_keys.push_back(rng.below(KmerIndex::kmer_mask(k)));
  }
  expect_batched_lookups_match_monolithic(genome, k, 3, random_keys);

  // More shards than bases collapse to one shard per base; every 4-mer key,
  // present or not, goes through one batch.
  std::vector<std::uint64_t> every_key(KmerIndex::kmer_mask(4) + 1);
  std::iota(every_key.begin(), every_key.end(), std::uint64_t{0});
  expect_batched_lookups_match_monolithic(testing::random_seq(rng, 10), 4, 64, every_key);
}

TEST(ShardedIndexDeath, RejectsReferencePast32BitPositions) {
  // One base past the 32-bit position limit, as an inaccessible mapping
  // that commits no memory: the size check must fire before any base is
  // read, or lookup() would wrap positions silently.
  const std::size_t bases = KmerIndex::kMaxReferenceBases + 1;
  void* mem = mmap(nullptr, bases, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  const std::span<const seq::BaseCode> genome(static_cast<const seq::BaseCode*>(mem), bases);
  IndexShardingOptions options;
  options.shards = 4;
  EXPECT_DEATH(ShardedKmerIndex(genome, 15, options), "overflows the index's 32-bit positions");
  munmap(mem, bases);
}

TEST(ShardedIndex, PersistedShardsRoundTripThroughRegistry) {
  auto& reg = IndexRegistry::instance();
  auto genome = fuzz_genome(101, 20000);
  const int k = 16;
  KmerIndex mono(genome, k);
  IndexShardingOptions options;
  options.shards = 4;
  options.path_prefix = temp_path("shard_prefix");
  for (std::size_t i = 0; i < options.shards; ++i) {
    fs::remove(options.path_prefix + ".shard" + std::to_string(i));
  }

  reg.reset_stats();
  {
    ShardedKmerIndex cold(genome, k, options);  // builds + saves every shard
    EXPECT_EQ(reg.stats().builds, options.shards);
    for (std::size_t i = 0; i < options.shards; ++i) {
      EXPECT_TRUE(fs::exists(options.path_prefix + ".shard" + std::to_string(i)));
    }
    for (const auto& s : cold.shards()) EXPECT_TRUE(s.index->mmap_backed());
  }  // drop the cold handles so the warm start exercises the load path

  // Warm start: all shards load from their files, no rebuild anywhere.
  reg.reset_stats();
  ShardedKmerIndex warm(genome, k, options);
  EXPECT_EQ(reg.stats().builds, 0u);
  EXPECT_EQ(reg.stats().loads, options.shards);

  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
    std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
    auto want = mono.lookup(kmer);
    auto got = warm.lookup(kmer);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  }
}

/// End-to-end fixture: one genome, simulated reads, and the plain in-memory
/// mapper whose SAM output is the oracle for every shared-index path.
struct EndToEnd : ::testing::Test {
  std::vector<seq::BaseCode> genome;
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;

  void SetUp() override {
    seq::GenomeParams gp;
    gp.length = 60000;
    gp.n_fraction = 0.001;
    gp.repeat_fraction = 0.05;
    genome = seq::generate_genome(gp);
    seq::ReadProfile profile = seq::ReadProfile::equal_length(150);
    profile.mutation_rate = 0.01;
    seq::ReadSimulator sim(genome, profile, 13);
    for (auto& r : sim.simulate(40)) reads.push_back(r.read);
    for (const auto& r : reads) read_seqs.push_back(r.bases);
  }

  std::string sam_of(const ReadMapper& mapper) const {
    core::AlignerOptions opts;
    opts.traceback = true;
    core::Aligner aligner(opts);
    auto mappings =
        mapper.map_batch(read_seqs, aligner.batch_extender(), aligner.traced_extender());
    std::ostringstream out;
    seq::SamHeader h;
    h.reference_name = "chrT";
    h.reference_length = genome.size();
    seq::SamWriter writer(out, h);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(to_sam_record(mapper, reads[i], mappings[i], "chrT"));
    }
    return out.str();
  }
};

TEST_F(EndToEnd, MmapBackedMapperEmitsIdenticalSamBytes) {
  ReadMapper plain(genome, MapperParams{});
  std::string want = sam_of(plain);
  EXPECT_NE(want.find("chrT"), std::string::npos);

  MapperParams mmap_params;
  mmap_params.index_path = temp_path("e2e_mmap");
  fs::remove(mmap_params.index_path);
  ReadMapper cold(genome, mmap_params);  // builds + saves + maps
  EXPECT_EQ(sam_of(cold), want);

  ReadMapper warm(genome, mmap_params);  // pure mmap load
  EXPECT_EQ(sam_of(warm), want);
}

TEST_F(EndToEnd, ShardedMapperEmitsIdenticalSamBytes) {
  ReadMapper plain(genome, MapperParams{});
  std::string want = sam_of(plain);

  MapperParams sharded;
  sharded.index_shards = 3;
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);

  // Sharded + persisted sub-indices (the mmap'd sharded cold/warm start).
  sharded.index_path = temp_path("e2e_sharded");
  for (std::size_t i = 0; i < sharded.index_shards; ++i) {
    fs::remove(sharded.index_path + ".shard" + std::to_string(i));
  }
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);  // cold
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);  // warm
}

TEST_F(EndToEnd, PipelineBuildsSharedIndexExactlyOnce) {
  // The satellite regression: two mappers over one reference must share one
  // physical index — one build, every later acquisition a registry hit.
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  ReadMapper first(genome, MapperParams{});
  ReadMapper second(genome, MapperParams{});
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_GE(reg.stats().hits, 1u);
  EXPECT_EQ(sam_of(first), sam_of(second));
}

}  // namespace
}  // namespace saloba::seedext
