#include "seedext/kmer_index.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>

namespace saloba::seedext {
namespace {

void check_k(int k) {
  SALOBA_CHECK_MSG(k >= KmerIndex::kMinK && k <= KmerIndex::kMaxK,
                   "k must be in [" << KmerIndex::kMinK << ", " << KmerIndex::kMaxK
                                    << "], got " << k);
}

}  // namespace

KmerIndex::Geometry KmerIndex::geometry(std::size_t positions, int k) {
  Geometry g;
  // bit_width(n) - 2 bucket bits leave n / 2^B in [2, 4) entries per bucket.
  g.bucket_bits = std::clamp(static_cast<int>(std::bit_width(positions)) - 2, 0, 2 * k);
  g.suffix_bits = 2 * k - g.bucket_bits;
  g.suffix_bytes = g.suffix_bits <= 16 ? 2 : g.suffix_bits <= 32 ? 4 : 8;
  return g;
}

std::optional<std::uint64_t> KmerIndex::pack_kmer(std::span<const seq::BaseCode> kmer, int k) {
  check_k(k);
  SALOBA_DCHECK(kmer.size() >= static_cast<std::size_t>(k));
  std::optional<std::uint64_t> key;
  for_each_key(kmer.first(static_cast<std::size_t>(k)), k,
               [&](std::uint64_t rolled, std::size_t) { key = rolled; });
  return key;
}

KmerIndex::KmerIndex(std::span<const seq::BaseCode> text, int k) : k_(k) {
  check_k(k);
  SALOBA_CHECK_MSG(text.size() <= kMaxReferenceBases,
                   "reference of " << text.size() << " bases overflows the index's 32-bit "
                                   << "positions (limit " << kMaxReferenceBases << ")");
  std::size_t positions = 0;
  for_each_key(text, k, [&](std::uint64_t, std::size_t) { ++positions; });
  geometry_ = geometry(positions, k);
  switch (geometry_.suffix_bytes) {
    case 2: build<std::uint16_t>(text); break;
    case 4: build<std::uint32_t>(text); break;
    default: build<std::uint64_t>(text); break;
  }
}

template <class Suffix>
void KmerIndex::build(std::span<const seq::BaseCode> text) {
  // Counting sort over buckets, every array sized exactly up front: count
  // each bucket's entries, prefix-sum the counts into bucket starts, then
  // scatter (suffix, position) in text order, so each bucket's positions
  // arrive ascending and only its suffixes can be out of order.
  const int shift = geometry_.suffix_bits;
  const std::uint64_t suffix_mask = (1ULL << shift) - 1;
  std::vector<std::uint32_t>& dir = directory_store_;
  dir.assign(geometry_.buckets() + 1, 0);
  for_each_key(text, k_, [&](std::uint64_t key, std::size_t) { ++dir[key >> shift]; });
  std::exclusive_scan(dir.begin(), dir.end(), dir.begin(), std::uint32_t{0});

  auto& suffixes = suffix_store_.template emplace<std::vector<Suffix>>(dir.back());
  entries_store_.resize(dir.back());
  // dir[b] is bucket b's write cursor; it ends on bucket b + 1's start, so
  // shifting the array one slot right restores the directory.
  for_each_key(text, k_, [&](std::uint64_t key, std::size_t pos) {
    const std::uint32_t at = dir[key >> shift]++;
    suffixes[at] = static_cast<Suffix>(key & suffix_mask);
    entries_store_[at] = static_cast<std::uint32_t>(pos);
  });
  std::shift_right(dir.begin(), dir.end(), 1);
  dir[0] = 0;

  std::vector<std::pair<Suffix, std::uint32_t>> run;
  for (std::size_t b = 0; b + 1 < dir.size(); ++b) {
    const auto lo = static_cast<std::ptrdiff_t>(dir[b]);
    const auto hi = static_cast<std::ptrdiff_t>(dir[b + 1]);
    if (std::is_sorted(suffixes.begin() + lo, suffixes.begin() + hi)) continue;
    run.clear();
    for (auto i = lo; i < hi; ++i) run.emplace_back(suffixes[i], entries_store_[i]);
    std::sort(run.begin(), run.end());
    for (auto i = lo; i < hi; ++i) std::tie(suffixes[i], entries_store_[i]) = run[i - lo];
  }

  directory_ = directory_store_;
  suffixes_ = std::as_bytes(std::span<const Suffix>(suffixes));
  entries_ = entries_store_;
}

KmerIndex::KmerIndex(int k, std::span<const std::uint32_t> directory,
                     std::span<const std::byte> suffixes,
                     std::span<const std::uint32_t> entries)
    : k_(k), directory_(directory), suffixes_(suffixes), entries_(entries) {
  check_k(k);
  geometry_ = geometry(entries.size(), k);
  SALOBA_CHECK_MSG(directory.size() == geometry_.buckets() + 1,
                   "adopted directory has " << directory.size() << " slots, "
                                            << entries.size() << " entries need "
                                            << geometry_.buckets() + 1);
  SALOBA_CHECK_MSG(directory.front() == 0 && directory.back() == entries.size(),
                   "adopted directory does not delimit the " << entries.size()
                                                             << " entries");
  const auto width = static_cast<std::size_t>(geometry_.suffix_bytes);
  SALOBA_CHECK_MSG(suffixes.size() == entries.size() * width &&
                       reinterpret_cast<std::uintptr_t>(suffixes.data()) % width == 0,
                   "adopted suffixes are not " << entries.size() << " aligned " << width
                                               << "-byte words");
}

std::span<const std::uint32_t> KmerIndex::lookup_packed(std::uint64_t key) const {
  std::span<const std::uint32_t> run;
  lookup_packed(std::span<const std::uint64_t>(&key, 1),
                std::span<std::span<const std::uint32_t>>(&run, 1));
  return run;
}

void KmerIndex::lookup_packed(std::span<const std::uint64_t> keys,
                              std::span<std::span<const std::uint32_t>> out) const {
  SALOBA_CHECK_MSG(out.size() == keys.size(),
                   "batched lookup of " << keys.size() << " keys into " << out.size()
                                        << " hit lists");
  switch (geometry_.suffix_bytes) {
    case 2: lookup_staged<std::uint16_t>(keys, out); break;
    case 4: lookup_staged<std::uint32_t>(keys, out); break;
    default: lookup_staged<std::uint64_t>(keys, out); break;
  }
}

template <class Suffix>
void KmerIndex::lookup_staged(std::span<const std::uint64_t> keys,
                              std::span<std::span<const std::uint32_t>> out) const {
  const int shift = geometry_.suffix_bits;
  const std::uint64_t suffix_mask = (1ULL << shift) - 1;
  const auto* suffixes = reinterpret_cast<const Suffix*>(suffixes_.data());
  // Each stage issues one load per key, for the whole block, before any
  // key's next load depends on it.
  for (std::uint64_t key : keys) {
    SALOBA_DCHECK(key <= kmer_mask(k_));
    __builtin_prefetch(&directory_[key >> shift]);
  }
  // out[i] holds key i's whole bucket run until the search narrows it.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t bucket = keys[i] >> shift;
    const std::uint32_t first = directory_[bucket];
    __builtin_prefetch(suffixes + first);
    out[i] = entries_.subspan(first, directory_[bucket + 1] - first);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Suffix* run = suffixes + (out[i].data() - entries_.data());
    auto [lo, hi] = std::equal_range(run, run + out[i].size(),
                                     static_cast<Suffix>(keys[i] & suffix_mask));
    out[i] = entries_.subspan(static_cast<std::size_t>(lo - suffixes),
                              static_cast<std::size_t>(hi - lo));
    if (!out[i].empty()) __builtin_prefetch(out[i].data());
  }
}

std::span<const std::uint32_t> KmerIndex::lookup(std::span<const seq::BaseCode> kmer) const {
  if (kmer.size() < static_cast<std::size_t>(k_)) return {};
  auto packed = pack_kmer(kmer, k_);
  if (!packed) return {};
  return lookup_packed(*packed);
}

}  // namespace saloba::seedext
