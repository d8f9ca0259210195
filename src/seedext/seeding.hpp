// Seeding: find maximal exact matches between a read and the genome through
// the k-mer index, monolithic or reference-sharded. Produces the Seed lists
// that chaining and extension-job extraction consume. A read's sampled keys
// are looked up in blocks through the index's batched lookup_packed, so
// their cache misses overlap; the seeds are those of looking each key up
// in turn.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seedext/kmer_index.hpp"
#include "seedext/shared_index.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {

struct Seed {
  std::uint32_t qpos = 0;  ///< start in the read
  std::uint32_t rpos = 0;  ///< start in the genome
  std::uint32_t len = 0;   ///< exact-match length

  std::int64_t diagonal() const {
    return static_cast<std::int64_t>(rpos) - static_cast<std::int64_t>(qpos);
  }
  bool operator==(const Seed&) const = default;
};

struct SeedingParams {
  int min_seed_len = 19;     ///< BWA-MEM default
  std::size_t max_hits = 32; ///< occurrence cap per k-mer (repeat filter)
  int stride = 1;            ///< query positions sampled for k-mer seeding
};

/// K-mer seeding: the k-mer key is rolled along the read, every hit of every
/// stride-sampled k-mer within max_hits lies in a maximal exact match, and
/// each such match is reported once (extended once, from its first hit),
/// filtered to len >= min_seed_len and sorted by (qpos, rpos). Throws
/// std::invalid_argument naming SeedingParams::stride if stride < 1.
std::vector<Seed> find_seeds(const KmerIndex& index, std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read, const SeedingParams& params);

/// K-mer seeding over a reference-sharded index: same algorithm (and the
/// same one implementation underneath), with each k-mer's hit list the
/// shard-merged global positions — bit-identical seeds to the monolithic
/// find_seeds, including the max_hits repeat filter, which judges the
/// merged list.
std::vector<Seed> find_seeds(const ShardedKmerIndex& index,
                             std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read, const SeedingParams& params);

}  // namespace saloba::seedext
