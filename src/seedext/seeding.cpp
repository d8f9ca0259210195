#include "seedext/seeding.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace saloba::seedext {
namespace {

/// Extends an exact match at (qpos, rpos, len) as far as possible in both
/// directions. N never matches (consistent with scoring).
Seed extend_exact(std::span<const seq::BaseCode> genome, std::span<const seq::BaseCode> read,
                  Seed seed) {
  auto matches = [](seq::BaseCode a, seq::BaseCode b) {
    return a == b && a < seq::kBaseN;
  };
  // Left.
  while (seed.qpos > 0 && seed.rpos > 0 &&
         matches(genome[seed.rpos - 1], read[seed.qpos - 1])) {
    --seed.qpos;
    --seed.rpos;
    ++seed.len;
  }
  // Right.
  while (seed.qpos + seed.len < read.size() && seed.rpos + seed.len < genome.size() &&
         matches(genome[seed.rpos + seed.len], read[seed.qpos + seed.len])) {
    ++seed.len;
  }
  return seed;
}

/// Keys per batched lookup. A 250 bp read's 235 keys are one block; a
/// 12 kbp read's 47 blocks each read their prefetched lines while those are
/// still in L1.
constexpr std::size_t kLookupBlock = 256;

/// The one k-mer seeding implementation, over either index. The max_hits
/// repeat filter applies to whatever the lookup returned — for the sharded
/// index that is the merged list, so both paths agree by construction.
///
/// The strand's stride-sampled keys are gathered first and looked up a
/// block at a time, so their index loads overlap; hits are then visited in
/// query order, exactly as if each key were looked up in turn.
///
/// Each maximal match is extended exactly once: a hit at query position q
/// on a diagonal that already holds an extended match ending at or after
/// q + k lies inside that match (the match started at or before q, since
/// positions are visited in order), so extending it would give the same
/// seed. Matches are recorded before the min_seed_len filter, so a short
/// match is not re-extended either.
template <class Index>
std::vector<Seed> find_seeds_impl(const Index& index, std::span<const seq::BaseCode> genome,
                                  std::span<const seq::BaseCode> read,
                                  const SeedingParams& params) {
  struct Extended {
    std::int64_t diagonal;
    std::size_t end;  ///< one past the match's last query base
  };
  if (params.stride < 1) {
    throw std::invalid_argument("SeedingParams::stride must be >= 1, got " +
                                std::to_string(params.stride));
  }
  const auto k = static_cast<std::size_t>(index.k());
  const auto stride = static_cast<std::size_t>(params.stride);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> key_qpos;
  const std::size_t sampled = read.size() >= k ? (read.size() - k) / stride + 1 : 0;
  keys.reserve(sampled);
  key_qpos.reserve(sampled);
  KmerIndex::for_each_key(read, index.k(), [&](std::uint64_t key, std::size_t q) {
    if (q % stride != 0) return;
    keys.push_back(key);
    key_qpos.push_back(static_cast<std::uint32_t>(q));
  });

  std::vector<Seed> seeds;
  std::vector<Extended> live;  // extended matches whose end is still >= q + k
  KmerHits hits;
  for (std::size_t first = 0; first < keys.size(); first += kLookupBlock) {
    const std::size_t count = std::min(kLookupBlock, keys.size() - first);
    index.lookup_packed(std::span<const std::uint64_t>(keys).subspan(first, count), hits);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t q = key_qpos[first + i];
      std::erase_if(live, [&](const Extended& m) { return m.end < q + k; });
      const std::span<const std::uint32_t> positions = hits.lists[i];
      if (positions.empty() || positions.size() > params.max_hits) continue;
      for (std::uint32_t rpos : positions) {
        const std::int64_t diagonal =
            static_cast<std::int64_t>(rpos) - static_cast<std::int64_t>(q);
        if (std::any_of(live.begin(), live.end(),
                        [&](const Extended& m) { return m.diagonal == diagonal; })) {
          continue;
        }
        Seed seed = extend_exact(genome, read,
                                 Seed{static_cast<std::uint32_t>(q), rpos,
                                      static_cast<std::uint32_t>(k)});
        live.push_back({diagonal, std::size_t{seed.qpos} + seed.len});
        if (seed.len >= static_cast<std::uint32_t>(params.min_seed_len)) seeds.push_back(seed);
      }
    }
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    return a.qpos != b.qpos ? a.qpos < b.qpos : a.rpos < b.rpos;
  });
  return seeds;
}

}  // namespace

std::vector<Seed> find_seeds(const KmerIndex& index, std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read,
                             const SeedingParams& params) {
  return find_seeds_impl(index, genome, read, params);
}

std::vector<Seed> find_seeds(const ShardedKmerIndex& index,
                             std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read,
                             const SeedingParams& params) {
  return find_seeds_impl(index, genome, read, params);
}

}  // namespace saloba::seedext
