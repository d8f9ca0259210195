// Genome-scale shared index: build-once, mmap-shared, reference-sharded.
//
// At service scale the reference is the invariant and reads are the traffic,
// yet every ReadMapper used to rebuild its k-mer index from scratch. This
// layer makes the index
//   * serializable — a versioned, checksummed on-disk format holding the
//     flat index arrays verbatim (load is a validate-and-adopt, no rebuild);
//   * mmap-shared — a read-only loader whose spans alias the mapping with
//     zero copy, behind refcounted SharedIndex handles that an in-process
//     registry deduplicates by (path, k) / (genome fingerprint, k), so every
//     Pipeline / ReadMapper (service tenant or not) over one reference
//     shares one physical index;
//   * shardable — a chromosome-scale genome partitioned into overlapping
//     windows with one sub-index per shard, whose merged lookups are
//     bit-identical to the monolithic index.
//
// On-disk format, version 2 (little-endian, all sections 8-byte aligned):
//   IndexFileHeader   magic "SLBAIDX\0", version, flags (exactly the k-mer
//                     section bit), k, genome length + FNV-1a fingerprint,
//                     payload checksum, k-mer section counts, and five
//                     reserved fields written as zero. genome length is
//                     stored as u64 but must not exceed
//                     KmerIndex::kMaxReferenceBases — positions are 32-bit
//                     on disk as in memory; larger references must shard.
//                     The loader rejects any other flags value (a file with
//                     the FM-index section older builds could write among
//                     them) and any nonzero reserved field.
//   k-mer section     directory (u32, buckets + 1 slots), key suffixes
//                     (u16/u32/u64, one per entry), entries (u32 positions)
//                     — exactly KmerIndex's arrays. The bucket count and the
//                     suffix width derive from k and the entry count; the
//                     loader re-derives both and checks the directory is a
//                     nondecreasing partition of the entries and every entry
//                     a k-mer start inside the reference before adopting.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "seedext/kmer_index.hpp"
#include "seq/alphabet.hpp"
#include "util/mmap_file.hpp"

namespace saloba::seedext {

/// Malformed, corrupted, or mismatched index files reject with this (not a
/// CHECK abort: a stale cache file is an input error, not a program bug).
class IndexFormatError : public std::runtime_error {
 public:
  explicit IndexFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Fixed header of the on-disk format. Trivially copyable by design — it is
/// written and mapped verbatim.
struct IndexFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;  ///< bit 0: k-mer section; the only value this version writes
  std::uint32_t k;
  std::uint32_t reserved32;  ///< zero (older builds' FM checkpoint stride)
  std::uint64_t genome_bases;     ///< reference length; <= KmerIndex::kMaxReferenceBases
  std::uint64_t genome_checksum;  ///< util::fnv1a64 over the reference bytes
  std::uint64_t payload_checksum; ///< util::fnv1a64 over everything after this header
  std::uint64_t kmer_buckets;  ///< KmerIndex::geometry(kmer_entries, k).buckets()
  std::uint64_t kmer_entries;
  std::uint64_t reserved64[4];  ///< zero (older builds' FM section counts)
};
static_assert(sizeof(IndexFileHeader) == 96, "on-disk header layout is part of the format");

inline constexpr std::uint32_t kIndexFormatVersion = 2;

/// One immutable, shareable reference index: a k-mer index either built in
/// memory or adopted zero-copy from a read-only mapping (which the handle
/// keeps alive). Handles are created through the factories / the
/// IndexRegistry and passed around as shared_ptr<const SharedIndex>; the
/// last owner unmaps.
class SharedIndex {
 public:
  /// Builds the k-mer index in memory.
  static std::shared_ptr<const SharedIndex> build(std::span<const seq::BaseCode> genome, int k);

  /// Maps `path` read-only and adopts its arrays with zero copy, after
  /// validating magic, version, flags, reserved fields, payload checksum,
  /// section geometry, the directory and entry positions, and that the file
  /// was built for `genome` (length + fingerprint) with `k`. Throws
  /// IndexFormatError.
  static std::shared_ptr<const SharedIndex> load(const std::string& path,
                                                 std::span<const seq::BaseCode> genome, int k);

  int k() const { return kmer_->k(); }
  const KmerIndex& kmer() const { return *kmer_; }
  bool mmap_backed() const { return map_.has_value(); }
  std::size_t genome_bases() const { return genome_bases_; }
  std::uint64_t genome_checksum() const { return genome_checksum_; }

 private:
  SharedIndex() = default;

  std::size_t genome_bases_ = 0;
  std::uint64_t genome_checksum_ = 0;
  std::optional<util::MmapFile> map_;  ///< backing pages of adopted spans
  std::optional<KmerIndex> kmer_;      ///< always set once a factory returns
};

/// Serializes an already-built k-mer index of `genome` to `path`. The write
/// is atomic: the bytes go to a temp file in the target directory whose name
/// no other write shares (`path` + ".tmp.<pid>.<n>"), which is then renamed
/// into place, so a concurrent loader never sees a half-written index and
/// concurrent writers of one path never write into each other's file. A
/// failed write removes its temp file.
void write_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                        const KmerIndex& kmer);

/// Build-and-write convenience (the cold path of the amortization story),
/// as atomic as write_shared_index. The temp file is opened before the
/// build, so a path whose directory is missing or unwritable throws
/// ("cannot write index temp file ...") without building anything.
void save_shared_index(const std::string& path, std::span<const seq::BaseCode> genome, int k);

/// What the registry has done since construction / reset_stats().
struct IndexRegistryStats {
  std::size_t builds = 0;  ///< index constructions (in-memory + cold-start saves)
  std::size_t loads = 0;   ///< mmap file loads
  std::size_t hits = 0;    ///< acquisitions served by a live or in-flight shared instance
};

/// In-process registry of live SharedIndex instances, keyed by
/// (canonical path, k) for file-backed indices and by
/// (genome fingerprint, length, k) for in-memory ones. Entries
/// are weak: the registry never extends an index's lifetime, it only
/// deduplicates concurrent users — when the last ReadMapper/tenant releases
/// its handle the index is freed, and the next acquire rebuilds/reloads.
/// Acquirers that miss one key at once make it once: the first builds (or
/// loads) outside the lock while the others wait for its handle and count
/// as hits. A failed build reaches every waiter (as an IndexFormatError
/// when it was one, else a std::runtime_error with its message) and leaves
/// nothing behind, so the next acquire of the key tries again.
class IndexRegistry {
 public:
  static IndexRegistry& instance();

  /// The shared in-memory index for (genome, k): returns the live one if
  /// some other owner holds it, builds and registers otherwise.
  std::shared_ptr<const SharedIndex> acquire_memory(std::span<const seq::BaseCode> genome,
                                                    int k);

  /// The shared mmap-backed index for (path, k): returns the live mapping
  /// if one is held, loads otherwise — and when the file does not exist
  /// yet, builds from `genome`, saves, and loads (build-once).
  std::shared_ptr<const SharedIndex> acquire_file(const std::string& path,
                                                  std::span<const seq::BaseCode> genome, int k);

  IndexRegistryStats stats() const;
  void reset_stats();
  std::size_t live_entries() const;  ///< live (non-expired) registered indices

 private:
  using Handle = std::shared_ptr<const SharedIndex>;

  /// What the acquirer making a key hands the acquirers waiting on it: the
  /// handle, or its failure's message. Waiters throw an exception of their
  /// own (IndexFormatError or std::runtime_error) rather than rethrowing
  /// the maker's, so no exception object is shared between threads.
  struct Made {
    Handle handle;
    std::string error;
    bool format_error = false;
  };

  Handle acquire(const std::string& key, const std::function<Handle()>& make,
                 bool counts_as_build);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const SharedIndex>> live_;
  /// Keys whose first acquirer is building or loading right now; later
  /// acquirers of the key wait on the result instead of making their own.
  std::unordered_map<std::string, std::shared_future<Made>> pending_;
  IndexRegistryStats stats_;
};

/// Reference sharding of the k-mer seeding path. The genome is cut into
/// `shards` equal owned ranges; shard s additionally sees the next k - 1
/// bases (the overlap), so every k-mer start position belongs to exactly
/// one shard and merged lookups reproduce the monolithic index exactly.
/// A lookup runs every shard's staged lookup on the calling thread, so
/// shards are not placed on lanes.
struct IndexShardingOptions {
  std::size_t shards = 1;
  /// Non-empty: each shard's sub-index is persisted at
  /// "<path_prefix>.shard<i>" and acquired through the registry (mmap), so
  /// sharded cold starts amortize exactly like monolithic ones.
  std::string path_prefix;
};

class ShardedKmerIndex {
 public:
  struct Shard {
    std::size_t begin = 0;     ///< first owned base
    std::size_t end = 0;       ///< one past the last owned k-mer start
    std::size_t text_end = 0;  ///< window end including the k - 1 overlap
    std::shared_ptr<const SharedIndex> index;  ///< k-mer sub-index over [begin, text_end)
  };

  ShardedKmerIndex(std::span<const seq::BaseCode> genome, int k,
                   const IndexShardingOptions& options);

  int k() const { return k_; }
  std::size_t genome_bases() const { return genome_bases_; }
  const std::vector<Shard>& shards() const { return shards_; }

  /// Merged global positions of the k-mer — bit-identical (same positions,
  /// same ascending order) to the monolithic KmerIndex::lookup. The batched
  /// lookup with a block of one key.
  std::vector<std::uint32_t> lookup(std::span<const seq::BaseCode> kmer) const;

  /// Batched lookup by already-packed canonical keys: runs every shard's
  /// staged KmerIndex::lookup_packed over the whole block, then merges each
  /// key's runs in shard order, offset to global positions, into
  /// `out.merged`. Each shard's k-mer starts lie in its owned range, so no
  /// position is dropped or repeated. out.lists[i] (resized to keys.size())
  /// is then keys[i]'s list, equal to the monolithic lookup_packed(keys[i]).
  void lookup_packed(std::span<const std::uint64_t> keys, KmerHits& out) const;

 private:
  int k_;
  std::size_t genome_bases_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace saloba::seedext
