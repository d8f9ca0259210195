#include "seedext/kmer_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace saloba::seedext {

std::optional<std::uint64_t> KmerIndex::pack_kmer(std::span<const seq::BaseCode> kmer, int k) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_DCHECK(kmer.size() >= static_cast<std::size_t>(k));
  // Same masked rolling recurrence as the index build, so packed keys and
  // built keys are canonical (high bits zero) by the one shared path.
  const std::uint64_t mask = kmer_mask(k);
  std::uint64_t key = 0;
  for (int i = 0; i < k; ++i) {
    if (kmer[static_cast<std::size_t>(i)] >= 4) return std::nullopt;  // N
    key = ((key << 2) | kmer[static_cast<std::size_t>(i)]) & mask;
  }
  return key;
}

KmerIndex::KmerIndex(std::span<const seq::BaseCode> text, int k) : k_(k) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_CHECK_MSG(text.size() <= kMaxReferenceBases,
                   "reference of " << text.size() << " bases overflows the index's 32-bit "
                                   << "positions (limit " << kMaxReferenceBases << ")");
  if (text.size() >= static_cast<std::size_t>(k)) {
    // Collect (kmer, pos) pairs with a rolling 2-bit encoding.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
    pairs.reserve(text.size());
    const std::uint64_t mask = kmer_mask(k);
    std::uint64_t key = 0;
    int valid = 0;  // consecutive non-N bases accumulated
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] >= 4) {
        valid = 0;
        key = 0;
        continue;
      }
      key = ((key << 2) | text[i]) & mask;
      if (++valid >= k) {
        pairs.emplace_back(key, static_cast<std::uint32_t>(i + 1 - static_cast<std::size_t>(k)));
      }
    }
    std::sort(pairs.begin(), pairs.end());

    keys_store_.reserve(pairs.size() / 2);
    offsets_store_.reserve(pairs.size() / 2 + 1);
    entries_store_.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i == 0 || pairs[i].first != pairs[i - 1].first) {
        keys_store_.push_back(pairs[i].first);
        offsets_store_.push_back(static_cast<std::uint32_t>(entries_store_.size()));
      }
      entries_store_.push_back(pairs[i].second);
    }
  }
  offsets_store_.push_back(static_cast<std::uint32_t>(entries_store_.size()));
  keys_ = keys_store_;
  offsets_ = offsets_store_;
  entries_ = entries_store_;
}

KmerIndex::KmerIndex(int k, std::span<const std::uint64_t> keys,
                     std::span<const std::uint32_t> offsets,
                     std::span<const std::uint32_t> entries)
    : k_(k), keys_(keys), offsets_(offsets), entries_(entries) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_CHECK_MSG(offsets.size() == keys.size() + 1,
                   "adopted offsets size " << offsets.size() << " != keys size "
                                           << keys.size() << " + 1");
  SALOBA_CHECK_MSG(offsets.empty() || offsets.back() == entries.size(),
                   "adopted offsets end " << offsets.back() << " != entries size "
                                          << entries.size());
}

std::size_t KmerIndex::distinct_kmers() const { return keys_.size(); }

std::span<const std::uint32_t> KmerIndex::lookup(std::span<const seq::BaseCode> kmer) const {
  if (kmer.size() < static_cast<std::size_t>(k_)) return {};
  auto packed = pack_kmer(kmer, k_);
  if (!packed) return {};
  return lookup_packed(*packed);
}

std::span<const std::uint32_t> KmerIndex::lookup_packed(std::uint64_t key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return {};
  std::size_t idx = static_cast<std::size_t>(it - keys_.begin());
  return {entries_.data() + offsets_[idx],
          static_cast<std::size_t>(offsets_[idx + 1] - offsets_[idx])};
}

}  // namespace saloba::seedext
