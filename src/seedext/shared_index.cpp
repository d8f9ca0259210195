#include "seedext/shared_index.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <unistd.h>

#include "util/check.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"

namespace saloba::seedext {
namespace {

constexpr char kIndexMagic[8] = {'S', 'L', 'B', 'A', 'I', 'D', 'X', '\0'};
constexpr std::uint32_t kFlagKmer = 1u << 0;
/// The FM-index section older builds could write; this build rejects it.
constexpr std::uint32_t kFlagFm = 1u << 1;

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw IndexFormatError("index file " + path + ": " + why);
}

std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Byte offsets of every k-mer array from the start of the payload (the
/// byte after the header), plus the payload's total size and the suffix
/// width. Shared by the writer and the loader so the two can never disagree
/// about geometry.
struct SectionLayout {
  std::size_t suffixes = 0;  ///< the directory starts the payload
  std::size_t suffix_bytes = 0;
  std::size_t entries = 0;
  std::size_t total = 0;
};

SectionLayout layout_of(const IndexFileHeader& h) {
  SectionLayout lay;
  lay.suffix_bytes = static_cast<std::size_t>(
      KmerIndex::geometry(h.kmer_entries, static_cast<int>(h.k)).suffix_bytes);
  lay.suffixes = align8((h.kmer_buckets + 1) * sizeof(std::uint32_t));
  lay.entries = align8(lay.suffixes + h.kmer_entries * lay.suffix_bytes);
  lay.total = align8(lay.entries + h.kmer_entries * sizeof(std::uint32_t));
  return lay;
}

std::uint64_t genome_fingerprint(std::span<const seq::BaseCode> genome) {
  return util::fnv1a64_of(genome);
}

std::string canonical_path(const std::string& path) {
  std::error_code ec;
  auto canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

/// A temp-file name next to `path` that no other write, in this process or
/// another, uses: concurrent cold starts of one path each write their own
/// file and rename it into place.
std::string unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedIndex
// ---------------------------------------------------------------------------

std::shared_ptr<const SharedIndex> SharedIndex::build(std::span<const seq::BaseCode> genome,
                                                      int k) {
  auto out = std::shared_ptr<SharedIndex>(new SharedIndex());
  out->genome_bases_ = genome.size();
  out->genome_checksum_ = genome_fingerprint(genome);
  out->kmer_.emplace(genome, k);
  return out;
}

std::shared_ptr<const SharedIndex> SharedIndex::load(const std::string& path,
                                                     std::span<const seq::BaseCode> genome,
                                                     int k) {
  auto out = std::shared_ptr<SharedIndex>(new SharedIndex());
  try {
    out->map_.emplace(path);
  } catch (const std::runtime_error& e) {
    // A missing or unmappable file is the same class of input error as a
    // corrupted one: reject, don't abort.
    reject(path, e.what());
  }
  std::span<const std::byte> bytes = out->map_->bytes();

  if (bytes.size() < sizeof(IndexFileHeader)) reject(path, "shorter than the header");
  IndexFileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));

  if (std::memcmp(h.magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    reject(path, "bad magic (not a saloba index)");
  }
  if (h.version != kIndexFormatVersion) {
    std::ostringstream oss;
    oss << "format version " << h.version << ", this build reads " << kIndexFormatVersion;
    reject(path, oss.str());
  }
  if (h.flags & kFlagFm) {
    reject(path, "holds an FM-index section, which this build no longer reads");
  }
  if (h.flags != kFlagKmer) reject(path, "section flags other than exactly the k-mer section");
  if (h.reserved32 != 0 ||
      std::any_of(std::begin(h.reserved64), std::end(h.reserved64),
                  [](std::uint64_t v) { return v != 0; })) {
    reject(path, "a reserved header field is not zero");
  }
  if (h.genome_bases > KmerIndex::kMaxReferenceBases) {
    reject(path, "header reference length exceeds the 32-bit position limit");
  }
  if (h.k < KmerIndex::kMinK || h.k > KmerIndex::kMaxK) {
    reject(path, "header k outside [4, 31]");
  }
  // The k-mer counts size the sections, so they are bounded before any
  // geometry arithmetic: entries by the reference length, the bucket count
  // by what k and the entries derive.
  if (h.kmer_entries > h.genome_bases) {
    reject(path, "more k-mer entries than reference positions");
  }
  if (h.kmer_buckets != KmerIndex::geometry(h.kmer_entries, static_cast<int>(h.k)).buckets()) {
    reject(path, "k-mer bucket count does not match k and the entry count");
  }

  // Geometry first: a truncated file must reject before the checksum walks
  // off the mapping.
  SectionLayout lay = layout_of(h);
  std::span<const std::byte> payload = bytes.subspan(sizeof(h));
  if (payload.size() != lay.total) {
    std::ostringstream oss;
    oss << "payload is " << payload.size() << " bytes, header describes " << lay.total
        << " (truncated or trailing garbage)";
    reject(path, oss.str());
  }
  // The checksum's pass is the one read of the entries: its word loop over
  // their section also takes the largest, for the range check below. Two
  // u32 entries fill each word; an odd count's last word holds one entry
  // and padding, which is left out.
  const std::size_t paired_bytes = h.kmer_entries / 2 * 8;
  std::uint32_t largest_entry = 0;
  auto none = [](std::uint64_t) {};
  auto take_largest = [&](std::uint64_t pair) {
    largest_entry = std::max({largest_entry, static_cast<std::uint32_t>(pair),
                              static_cast<std::uint32_t>(pair >> 32)});
  };
  std::uint64_t checksum =
      util::fnv1a64_words(util::kFnv64Offset, payload.first(lay.entries), none);
  checksum =
      util::fnv1a64_words(checksum, payload.subspan(lay.entries, paired_bytes), take_largest);
  checksum = util::fnv1a64_words(checksum, payload.subspan(lay.entries + paired_bytes), none);
  if (util::fnv1a64_finish(checksum, payload.size()) != h.payload_checksum) {
    reject(path, "payload checksum mismatch (corrupted)");
  }

  // The file is internally consistent; now require it to be *this* genome's
  // index with the k the caller needs.
  if (h.genome_bases != genome.size() || h.genome_checksum != genome_fingerprint(genome)) {
    reject(path, "built for a different reference (length/fingerprint mismatch)");
  }
  if (static_cast<int>(h.k) != k) {
    std::ostringstream oss;
    oss << "built with k=" << h.k << ", caller wants k=" << k;
    reject(path, oss.str());
  }

  // Validate-and-adopt: spans alias the mapping, zero copy. A lookup reads
  // entries directory[b]..directory[b + 1] unchecked, so the directory must
  // be a nondecreasing partition of the entries even in a file whose
  // checksum holds.
  const std::byte* base = payload.data();
  const auto* dir_first = reinterpret_cast<const std::uint32_t*>(base);
  const auto* dir_last = dir_first + h.kmer_buckets + 1;
  if (*dir_first != 0) reject(path, "k-mer directory does not start at entry 0");
  if (!std::is_sorted(dir_first, dir_last)) reject(path, "k-mer directory decreases");
  if (dir_last[-1] != h.kmer_entries) {
    reject(path, "k-mer directory does not end at the entry count");
  }
  // Seeding reads the genome around every adopted position unchecked, so
  // each entry must be a k-mer start inside the reference.
  std::span<const std::uint32_t> entries(
      reinterpret_cast<const std::uint32_t*>(base + lay.entries), h.kmer_entries);
  if (h.kmer_entries % 2 == 1) largest_entry = std::max(largest_entry, entries.back());
  const std::uint64_t kmer_starts = h.genome_bases >= h.k ? h.genome_bases - h.k + 1 : 0;
  if (!entries.empty() && largest_entry >= kmer_starts) {
    reject(path, "a k-mer entry lies past the reference's last k-mer start");
  }
  out->kmer_.emplace(static_cast<int>(h.k),
                     std::span<const std::uint32_t>(dir_first, dir_last),
                     payload.subspan(lay.suffixes, h.kmer_entries * lay.suffix_bytes), entries);

  out->genome_bases_ = h.genome_bases;
  out->genome_checksum_ = h.genome_checksum;
  return out;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

/// Writes the index file of `genome` with the k-mer index `kmer_of()`
/// returns (by reference, or by value to build it here). The write is
/// atomic: it opens a sibling temp file of its own first — so a directory
/// that is missing or unwritable fails before `kmer_of` builds anything —
/// writes it, then renames it into place without an fsync. A concurrent
/// loader sees either the old file or a complete new one; a failed write
/// removes its temp file.
template <typename KmerOf>
void publish_index(const std::string& path, std::span<const seq::BaseCode> genome,
                   const KmerOf& kmer_of) {
  SALOBA_CHECK_MSG(genome.size() <= KmerIndex::kMaxReferenceBases,
                   "reference of " << genome.size()
                                   << " bases overflows the format's 32-bit positions");
  const std::string tmp = unique_temp_path(path);
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write index temp file " + tmp);
    const KmerIndex& kmer = kmer_of();

    IndexFileHeader h{};
    std::memcpy(h.magic, kIndexMagic, sizeof(kIndexMagic));
    h.version = kIndexFormatVersion;
    h.flags = kFlagKmer;
    h.k = static_cast<std::uint32_t>(kmer.k());
    h.genome_bases = genome.size();
    h.genome_checksum = genome_fingerprint(genome);
    h.kmer_buckets = kmer.directory().size() - 1;
    h.kmer_entries = kmer.entries().size();

    SectionLayout lay = layout_of(h);
    std::vector<std::byte> payload(lay.total, std::byte{0});
    auto put = [&](std::size_t at, const void* src, std::size_t bytes) {
      if (bytes > 0) std::memcpy(payload.data() + at, src, bytes);
    };
    put(0, kmer.directory().data(), kmer.directory().size_bytes());
    put(lay.suffixes, kmer.suffixes().data(), kmer.suffixes().size_bytes());
    put(lay.entries, kmer.entries().data(), kmer.entries().size_bytes());
    h.payload_checksum = util::fnv1a64(payload);

    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.close();
    if (!out) throw std::runtime_error("short write to index temp file " + tmp);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace

void write_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                        const KmerIndex& kmer) {
  publish_index(path, genome, [&]() -> const KmerIndex& { return kmer; });
}

void save_shared_index(const std::string& path, std::span<const seq::BaseCode> genome, int k) {
  publish_index(path, genome, [&] { return KmerIndex(genome, k); });
}

// ---------------------------------------------------------------------------
// IndexRegistry
// ---------------------------------------------------------------------------

IndexRegistry& IndexRegistry::instance() {
  static IndexRegistry registry;
  return registry;
}

IndexRegistry::Handle IndexRegistry::acquire(const std::string& key,
                                             const std::function<Handle()>& make,
                                             bool counts_as_build) {
  std::promise<Made> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = live_.find(key);
    if (it != live_.end()) {
      if (auto held = it->second.lock()) {
        ++stats_.hits;
        return held;
      }
    }
    auto pending = pending_.find(key);
    if (pending != pending_.end()) {
      // Another acquirer is making this index: wait for its handle (or its
      // failure) rather than building a second copy.
      std::shared_future<Made> result = pending->second;
      lock.unlock();
      const Made& theirs = result.get();
      if (!theirs.handle) {
        if (theirs.format_error) throw IndexFormatError(theirs.error);
        throw std::runtime_error(theirs.error);
      }
      lock.lock();
      ++stats_.hits;
      return theirs.handle;
    }
    pending_.emplace(key, promise.get_future().share());
  }
  // Build/load outside the lock so distinct keys index concurrently (shard
  // builds fan out through parallel_for).
  Made made;
  std::exception_ptr failure;
  try {
    made.handle = make();
  } catch (const std::exception& e) {
    failure = std::current_exception();
    made.error = e.what();
    made.format_error = dynamic_cast<const IndexFormatError*>(&e) != nullptr;
  } catch (...) {
    failure = std::current_exception();
    made.error = "index acquire of " + key + " failed";
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(key);
    if (made.handle) {
      if (counts_as_build) {
        ++stats_.builds;
      } else {
        ++stats_.loads;
      }
      live_[key] = made.handle;
    }
  }
  promise.set_value(made);
  if (failure) std::rethrow_exception(failure);
  return made.handle;
}

std::shared_ptr<const SharedIndex> IndexRegistry::acquire_memory(
    std::span<const seq::BaseCode> genome, int k) {
  std::ostringstream key;
  key << "mem:" << std::hex << genome_fingerprint(genome) << std::dec << ":" << genome.size()
      << ":k=" << k;
  return acquire(
      key.str(), [&] { return SharedIndex::build(genome, k); }, /*counts_as_build=*/true);
}

std::shared_ptr<const SharedIndex> IndexRegistry::acquire_file(
    const std::string& path, std::span<const seq::BaseCode> genome, int k) {
  const std::string key = "file:" + canonical_path(path) + ":k=" + std::to_string(k);
  bool cold = false;
  auto handle = acquire(
      key,
      [&] {
        if (!std::filesystem::exists(path)) {
          save_shared_index(path, genome, k);  // build-once cold start
          cold = true;
        }
        return SharedIndex::load(path, genome, k);
      },
      /*counts_as_build=*/false);
  if (cold) {
    // The cold start built the index before saving it; count that build so
    // stats distinguish build+save+load cold starts from pure warm loads.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
  }
  return handle;
}

IndexRegistryStats IndexRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IndexRegistry::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IndexRegistryStats{};
}

std::size_t IndexRegistry::live_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t live = 0;
  for (const auto& [key, weak] : live_) live += weak.expired() ? 0 : 1;
  return live;
}

// ---------------------------------------------------------------------------
// ShardedKmerIndex
// ---------------------------------------------------------------------------

ShardedKmerIndex::ShardedKmerIndex(std::span<const seq::BaseCode> genome, int k,
                                   const IndexShardingOptions& options)
    : k_(k), genome_bases_(genome.size()) {
  // Shard windows are small, but lookup() reports global positions in 32 bits.
  SALOBA_CHECK_MSG(genome.size() <= KmerIndex::kMaxReferenceBases,
                   "reference of " << genome.size() << " bases overflows the index's 32-bit "
                                   << "positions (limit " << KmerIndex::kMaxReferenceBases
                                   << ")");
  SALOBA_CHECK_MSG(options.shards >= 1, "need at least one shard");
  SALOBA_CHECK_MSG(!genome.empty(), "empty genome");

  // Equal owned ranges; the last shard absorbs the remainder. Shard counts
  // beyond the genome collapse so every shard owns at least one base.
  const std::size_t count = std::min(options.shards, genome.size());
  const std::size_t owned = genome.size() / count;
  shards_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    Shard& shard = shards_[s];
    shard.begin = s * owned;
    shard.end = s + 1 == count ? genome.size() : (s + 1) * owned;
    // The k - 1 overlap: a k-mer starting on the last owned base must fit.
    shard.text_end = std::min(genome.size(), shard.end + static_cast<std::size_t>(k) - 1);
  }

  // Sub-index builds/loads fan out host-parallel; the registry dedups each
  // window against any other sharded mapper over the same reference.
  std::exception_ptr failure;
  std::mutex failure_mu;
  util::parallel_for_indexed(count, [&](std::size_t s) {
    try {
      Shard& shard = shards_[s];
      std::span<const seq::BaseCode> window =
          genome.subspan(shard.begin, shard.text_end - shard.begin);
      if (options.path_prefix.empty()) {
        shard.index = IndexRegistry::instance().acquire_memory(window, k);
      } else {
        shard.index = IndexRegistry::instance().acquire_file(
            options.path_prefix + ".shard" + std::to_string(s), window, k);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
}

std::vector<std::uint32_t> ShardedKmerIndex::lookup(
    std::span<const seq::BaseCode> kmer) const {
  if (kmer.size() < static_cast<std::size_t>(k_)) return {};
  const std::optional<std::uint64_t> key = KmerIndex::pack_kmer(kmer, k_);
  if (!key) return {};
  KmerHits hits;
  lookup_packed(std::span<const std::uint64_t>(&*key, 1), hits);
  return std::move(hits.merged);  // one key: its list is all of `merged`
}

void ShardedKmerIndex::lookup_packed(std::span<const std::uint64_t> keys, KmerHits& out) const {
  // Shard s's staged lookup fills lists [s·n, (s+1)·n).
  const std::size_t n = keys.size();
  out.lists.resize(shards_.size() * n);
  std::size_t positions = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto runs = std::span(out.lists).subspan(s * n, n);
    shards_[s].index->kmer().lookup_packed(keys, runs);
    for (std::span<const std::uint32_t> run : runs) positions += run.size();
  }
  // Shard s indexes the window [begin, text_end) with text_end <= end + k - 1,
  // so every k-mer start it holds lies in its owned range [begin, end) (the
  // loader holds a file-backed shard's entries to the same bound). The owned
  // ranges partition the genome and per-shard runs are ascending, so a key's
  // runs, concatenated in shard order, are the monolithic (sorted,
  // duplicate-free) list. Reserving every run's positions up front keeps
  // `merged` from moving under the lists already pointed into it.
  out.merged.clear();
  out.merged.reserve(positions);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = out.merged.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (std::uint32_t local : out.lists[s * n + i]) {
        const std::size_t global = shards_[s].begin + local;
        SALOBA_DCHECK(global < shards_[s].end);
        out.merged.push_back(static_cast<std::uint32_t>(global));
      }
    }
    // List i was shard 0's run of key i, read by now.
    out.lists[i] = std::span<const std::uint32_t>(out.merged).subspan(first);
  }
  out.lists.resize(n);
}

}  // namespace saloba::seedext
