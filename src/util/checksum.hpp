// Checksums for the on-disk index format (seedext::SharedIndex). Word-wise
// FNV-1a: the classic byte-at-a-time FNV-1a recurrence applied to 64-bit
// little-endian words (tail bytes zero-padded), so validating a multi-hundred
// MB index payload costs a fraction of rebuilding it — the whole point of the
// mmap load path. Not cryptographic; guards against truncation/bit-rot, not
// adversaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace saloba::util {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;

/// fnv1a64's word loop: continues the hash `h` over the whole 64-bit words
/// of `data` (its size a multiple of 8) and hands each word to `visit` as it
/// is read, so a caller can check the bytes it hashes in the same pass.
template <class Visit>
std::uint64_t fnv1a64_words(std::uint64_t h, std::span<const std::byte> data, Visit&& visit) {
  for (std::size_t at = 0; at + 8 <= data.size(); at += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + at, 8);
    visit(w);
    h = (h ^ w) * kFnv64Prime;
  }
  return h;
}

/// fnv1a64's last step: folds the hashed length in, so "abc" and "abc\0"
/// (same padded word) differ.
inline std::uint64_t fnv1a64_finish(std::uint64_t h, std::size_t bytes) {
  return (h ^ static_cast<std::uint64_t>(bytes)) * kFnv64Prime;
}

/// Word-wise FNV-1a over `data`. Deterministic across platforms (the tail is
/// padded with zero bytes, words are read little-endian via memcpy).
inline std::uint64_t fnv1a64(std::span<const std::byte> data,
                             std::uint64_t seed = kFnv64Offset) {
  const std::size_t whole = data.size() - data.size() % 8;
  std::uint64_t h = fnv1a64_words(seed, data.first(whole), [](std::uint64_t) {});
  if (whole < data.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + whole, data.size() - whole);
    h = (h ^ w) * kFnv64Prime;
  }
  return fnv1a64_finish(h, data.size());
}

/// fnv1a64 over any trivially copyable element span (the flat index arrays).
template <class T>
std::uint64_t fnv1a64_of(std::span<const T> data, std::uint64_t seed = kFnv64Offset) {
  return fnv1a64(std::as_bytes(data), seed);
}

}  // namespace saloba::util
