// K-mer hash index over the reference genome: the fast seeding path of the
// pipeline. Entries are sorted by (kmer, position) and bucketed by the key's
// top bits: a lookup reads one directory slot, then binary-searches a short
// run of narrow key suffixes (2 to 4 entries per bucket), then reads the
// matching entries. Those are three dependent loads into an index far
// larger than the caches, so lookups run batched: each load is issued for a
// whole block of keys before any key's next load, and the block's cache
// misses overlap instead of queueing one key behind another.
//
// The three flat arrays (directory, suffixes, entries) are exposed as spans
// and can be adopted from external read-only memory: a SharedIndex
// mmap-loads the serialized arrays and constructs a view-backed KmerIndex
// over them with zero copy (see seedext/shared_index.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "seq/alphabet.hpp"
#include "util/check.hpp"

namespace saloba::seedext {

/// Hit lists of one block of keys, as a batched lookup_packed leaves them:
/// lists[i] holds keys[i]'s positions, ascending. A KmerIndex points them
/// into its own entries; a ShardedKmerIndex merges its shards' runs into
/// `merged` and points them there, so they stay valid until the next lookup
/// into this object. Reused block after block, so seeding a read allocates
/// once.
struct KmerHits {
  std::vector<std::span<const std::uint32_t>> lists;
  std::vector<std::uint32_t> merged;
};

class KmerIndex {
 public:
  /// Supported k range: 2 bits per base must fit a 64-bit key with room for
  /// the rolling shift, and kMaxK keeps every key's high bits zero so
  /// serialized keys are canonical (one masked packing path, no k == 32
  /// special case anywhere).
  static constexpr int kMinK = 4;
  static constexpr int kMaxK = 31;
  /// Positions and directory slots are 32-bit; references beyond this are
  /// rejected at build time (and recorded as u64 in the on-disk header so
  /// the loader re-validates the limit).
  static constexpr std::size_t kMaxReferenceBases = 0xFFFFFFFFull;

  /// Bucketing of a 2k-bit key, derived from k and the number of indexed
  /// positions — never configured. The top `bucket_bits` select one of
  /// 2^bucket_bits buckets (2 to 4 entries each); the low `suffix_bits`
  /// are stored per entry in the narrowest of u16/u32/u64 that holds them.
  struct Geometry {
    int bucket_bits = 0;
    int suffix_bits = 0;
    int suffix_bytes = 0;
    std::size_t buckets() const { return std::size_t{1} << bucket_bits; }
  };
  static Geometry geometry(std::size_t positions, int k);

  /// k in [kMinK, kMaxK]; k-mers containing N are not indexed.
  KmerIndex(std::span<const seq::BaseCode> text, int k);

  /// Adopts already-built flat arrays (the mmap zero-copy load path): the
  /// spans must stay valid and immutable for the index's lifetime, and must
  /// hold exactly what the building constructor would have produced —
  /// geometry(entries.size(), k).buckets() + 1 directory slots delimiting
  /// each bucket's entry run, and per entry its key suffix (suffix_bytes
  /// wide, aligned to that width) and position, sorted by (suffix, position)
  /// within each bucket.
  KmerIndex(int k, std::span<const std::uint32_t> directory,
            std::span<const std::byte> suffixes, std::span<const std::uint32_t> entries);

  int k() const { return k_; }
  const Geometry& geometry() const { return geometry_; }
  std::size_t indexed_positions() const { return entries_.size(); }

  /// Positions where the k-mer starting at `kmer[0..k)` occurs.
  /// Returns an empty span for k-mers containing N.
  std::span<const std::uint32_t> lookup(std::span<const seq::BaseCode> kmer) const;

  /// Lookup by an already-packed canonical key (pack_kmer's form, or the
  /// rolled key of for_each_key): positions ascending. The batched lookup
  /// with a block of one key.
  std::span<const std::uint32_t> lookup_packed(std::uint64_t key) const;

  /// Batched lookup_packed: out[i] == lookup_packed(keys[i]) for every i
  /// (out.size() must equal keys.size()). Runs in three stages over the
  /// whole block: prefetch every key's directory slot; read the slots and
  /// prefetch each suffix run; binary-search each run and prefetch its
  /// entries. Blocks of a few hundred keys keep the prefetched lines in L1
  /// until they are read.
  void lookup_packed(std::span<const std::uint64_t> keys,
                     std::span<std::span<const std::uint32_t>> out) const;

  /// The batched lookup into a reused block of hit lists (`out.lists` is
  /// resized to keys.size(); `out.merged` is left alone).
  void lookup_packed(std::span<const std::uint64_t> keys, KmerHits& out) const {
    out.lists.resize(keys.size());
    lookup_packed(keys, out.lists);
  }

  /// 2-bit packs a k-mer; nullopt if it contains N. Keys are masked to the
  /// low 2k bits — the same canonical form the rolling build produces.
  static std::optional<std::uint64_t> pack_kmer(std::span<const seq::BaseCode> kmer, int k);

  /// Low-2k-bit mask every key is reduced to, for k in [kMinK, kMaxK].
  static constexpr std::uint64_t kmer_mask(int k) {
    static_assert(2 * kMaxK < 64, "rolling k-mer keys must fit 64 bits unshifted");
    return (1ULL << (2 * k)) - 1;
  }

  /// Calls fn(key, pos) for every k-mer of `text` free of N, in ascending
  /// pos, with the canonical key rolled 2 bits per base; an N restarts the
  /// roll. The one packing recurrence shared by the index build, pack_kmer
  /// and read seeding.
  template <class Fn>
  static void for_each_key(std::span<const seq::BaseCode> text, int k, Fn&& fn) {
    const std::uint64_t mask = kmer_mask(k);
    std::uint64_t key = 0;
    int valid = 0;  // consecutive non-N bases, saturating at k
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] >= seq::kBaseN) {
        valid = 0;
        key = 0;
        continue;
      }
      key = ((key << 2) | text[i]) & mask;
      valid = std::min(valid + 1, k);
      if (valid == k) fn(key, i + 1 - static_cast<std::size_t>(k));
    }
  }

  /// The flat arrays, for serialization (seedext::SharedIndex).
  std::span<const std::uint32_t> directory() const { return directory_; }
  std::span<const std::byte> suffixes() const { return suffixes_; }
  std::span<const std::uint32_t> entries() const { return entries_; }

 private:
  template <class Suffix>
  void build(std::span<const seq::BaseCode> text);

  template <class Suffix>
  void lookup_staged(std::span<const std::uint64_t> keys,
                     std::span<std::span<const std::uint32_t>> out) const;

  int k_;
  Geometry geometry_;
  // Owned storage when built from text; empty when adopting external memory.
  std::vector<std::uint32_t> directory_store_;
  std::variant<std::vector<std::uint16_t>, std::vector<std::uint32_t>,
               std::vector<std::uint64_t>>
      suffix_store_;
  std::vector<std::uint32_t> entries_store_;
  // directory_[b]..directory_[b+1] is bucket b's run in suffixes_/entries_,
  // sorted by (suffix, position).
  std::span<const std::uint32_t> directory_;
  std::span<const std::byte> suffixes_;
  std::span<const std::uint32_t> entries_;
};

}  // namespace saloba::seedext
