// AVX2 implementations of the signed lane vocabularies (OpsI32Generic and
// OpsI16Generic in simd_vec.hpp are the reference semantics), shared by the
// AVX2 translation units of their kernels: seedext/chain_engine_avx2.cpp
// (chaining push, int32) and align/xdrop_wavefront_avx2.cpp (X-drop
// anti-diagonal cell body, int16 and int32). Only translation units compiled
// with -mavx2 may include it; they are reached only after
// align::simd::cpu_supports_avx2 passes at runtime, and nothing they define
// may be reachable from the generic path.
#pragma once

#if !defined(__AVX2__)
#error "simd_vec_avx2.hpp is for translation units compiled with -mavx2"
#endif

#include <immintrin.h>

#include <cstdint>

namespace saloba::align::simd {

/// 8 signed int32 lanes per 256-bit register; wrapping add/sub/mullo match
/// OpsI32Generic's uint32-modular reference arithmetic bit for bit.
struct OpsI32Avx2 {
  using Elem = std::int32_t;
  static constexpr int kLanes = 8;
  using Vec = __m256i;

  static Vec splat(std::int32_t s) { return _mm256_set1_epi32(s); }
  static Vec load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int32_t* dst, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static Vec load_bases(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_low_bytes(std::uint8_t* dst, Vec v) {
    // Byte 0 of every dword to the low dword of its 128-bit half, then the
    // upper half's dword next to the lower's: 8 bytes in lane order.
    const __m256i pick = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                          -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                          -1, -1, -1, -1);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(v, pick), _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), _mm256_castsi256_si128(packed));
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi32(a, b); }
  static Vec smax(Vec a, Vec b) { return _mm256_max_epi32(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi32(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi32(a, b); }
  static Vec vand(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static Vec vor(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec andnot(Vec mask, Vec v) { return _mm256_andnot_si256(mask, v); }
  static Vec blend(Vec mask, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, mask); }
  static bool any(Vec m) { return _mm256_testz_si256(m, m) == 0; }
  static std::int32_t hmax(Vec a) {
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(m);
  }
  static Vec sabs(Vec a) { return _mm256_abs_epi32(a); }
  template <int Shift>
  static Vec sra(Vec a) {
    return _mm256_srai_epi32(a, Shift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm256_mullo_epi32(a, b); }
};

/// 16 signed int16 lanes per 256-bit register; saturating add/sub match
/// OpsI16Generic's clamped reference arithmetic bit for bit.
struct OpsI16Avx2 {
  using Elem = std::int16_t;
  static constexpr int kLanes = 16;
  using Vec = __m256i;

  static Vec splat(std::int16_t s) { return _mm256_set1_epi16(s); }
  static Vec load(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int16_t* dst, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static Vec load_bases(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_low_bytes(std::uint8_t* dst, Vec v) {
    // Byte 0 of every word to the low quadword of its 128-bit half, then the
    // upper half's quadword next to the lower's: 16 bytes in lane order.
    const __m256i pick = _mm256_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1,
                                          -1, -1, 0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1,
                                          -1, -1, -1, -1);
    const __m256i packed =
        _mm256_permute4x64_epi64(_mm256_shuffle_epi8(v, pick), _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm256_castsi256_si128(packed));
  }
  static Vec add(Vec a, Vec b) { return _mm256_adds_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_subs_epi16(a, b); }
  static Vec smax(Vec a, Vec b) { return _mm256_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi16(a, b); }
  static Vec vand(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static Vec vor(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec andnot(Vec mask, Vec v) { return _mm256_andnot_si256(mask, v); }
  static Vec blend(Vec mask, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, mask); }
  static bool any(Vec m) { return _mm256_testz_si256(m, m) == 0; }
  static std::int16_t hmax(Vec a) {
    __m128i m = _mm_max_epi16(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
    m = _mm_max_epi16(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi16(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    m = _mm_max_epi16(m, _mm_shufflelo_epi16(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<std::int16_t>(_mm_cvtsi128_si32(m));
  }
};

}  // namespace saloba::align::simd
