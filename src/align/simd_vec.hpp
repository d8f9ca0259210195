// Portable lane-vector abstraction behind the inter-sequence SIMD extension
// engine (align/simd_engine.hpp). The DP kernel (simd_kernel.hpp) is written
// once against a small "Ops" vocabulary; this header provides the generic
// fallback implementation (plain fixed-width arrays the compiler may
// auto-vectorise), and simd_engine_avx2.cpp provides AVX2 intrinsic
// implementations of the same vocabulary. Which one runs is a runtime CPUID
// decision (align::simd::cpu_supports_avx2), so one binary serves both old
// and new hardware.
//
// The Ops vocabulary, shared by every implementation:
//
//   Elem            unsigned DP lane type (uint8_t or uint16_t); scores are
//                   carried with *saturating* unsigned arithmetic: the
//                   local-alignment zero floor maps to saturation at 0, and
//                   saturation at kSatMax is the overflow signal that evicts
//                   a lane to the next-wider pass (8 -> 16 -> int32).
//   kLanes          pairs packed per vector (32 at 8-bit, 16 at 16-bit).
//   kIdxHalves      how many index vectors (IVec, uint16 lanes) cover one
//                   Vec: 2 for 8-bit lanes, 1 for 16-bit lanes. Endpoint
//                   bookkeeping (ref_end/query_end) lives in the index
//                   domain because positions do not fit a DP lane.
//   Vec / IVec      the DP-domain and index-domain register types.
//   zero/splat/load_bases/adds/subs/maxu/cmpeq/vor/blend/vand/andnot/
//   cmpgt/any/store/store_mask and the i*-prefixed index-domain twins —
//   see OpsGeneric below for the reference semantics of each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace saloba::align::simd {

/// Reference (portable) implementation of the Ops vocabulary: fixed-width
/// arrays and plain loops. Correctness oracle for the intrinsic backends and
/// the fallback on non-AVX2 builds/hosts.
template <typename ElemT, int W, int SatMaxV>
struct OpsGeneric {
  using Elem = ElemT;
  static constexpr int kLanes = W;
  static constexpr int kSatMax = SatMaxV;
  static constexpr int kIdxHalves = sizeof(Elem) == 1 ? 2 : 1;
  static constexpr int kIdxLanes = kLanes / kIdxHalves;

  struct Vec {
    Elem v[kLanes];
  };
  struct IVec {
    std::uint16_t v[kIdxLanes];
  };

  static Vec zero() {
    Vec o{};
    return o;
  }
  static Vec splat(Elem s) {
    Vec o;
    for (auto& l : o.v) l = s;
    return o;
  }
  /// Widening load: kLanes base codes (one byte each) into DP lanes.
  static Vec load_bases(const std::uint8_t* p) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = static_cast<Elem>(p[k]);
    return o;
  }
  /// Saturating unsigned add — saturation at kSatMax is overflow detection.
  static Vec adds(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) {
      unsigned s = static_cast<unsigned>(a.v[k]) + static_cast<unsigned>(b.v[k]);
      o.v[k] = static_cast<Elem>(s > static_cast<unsigned>(kSatMax)
                                     ? static_cast<unsigned>(kSatMax)
                                     : s);
    }
    return o;
  }
  /// Saturating unsigned subtract — the floor at 0 is the local-alignment
  /// clamp (out-of-band / negative E/F collapse to the neutral element).
  static Vec subs(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] > b.v[k] ? a.v[k] - b.v[k] : 0;
    return o;
  }
  static Vec maxu(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return o;
  }
  static Vec cmpeq(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] == b.v[k] ? static_cast<Elem>(~Elem{0}) : 0;
    return o;
  }
  static Vec cmpgt(const Vec& a, const Vec& b) {  // unsigned a > b
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] > b.v[k] ? static_cast<Elem>(~Elem{0}) : 0;
    return o;
  }
  static Vec vand(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] & b.v[k];
    return o;
  }
  static Vec vor(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] | b.v[k];
    return o;
  }
  static Vec andnot(const Vec& mask, const Vec& v) {  // v & ~mask
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = static_cast<Elem>(v.v[k] & ~mask.v[k]);
    return o;
  }
  static Vec blend(const Vec& mask, const Vec& a, const Vec& b) {  // mask ? a : b
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = mask.v[k] ? a.v[k] : b.v[k];
    return o;
  }
  static bool any(const Vec& m) {
    for (int k = 0; k < kLanes; ++k) {
      if (m.v[k]) return true;
    }
    return false;
  }
  static void store(Elem* dst, const Vec& v) {
    for (int k = 0; k < kLanes; ++k) dst[k] = v.v[k];
  }
  /// One byte per lane, nonzero where the mask lane is set — the scalar-side
  /// readout for overflow decisions.
  static void store_mask(std::uint8_t* dst, const Vec& m) {
    for (int k = 0; k < kLanes; ++k) dst[k] = m.v[k] ? 1 : 0;
  }

  // --- index domain (uint16 lanes) ---------------------------------------
  static IVec izero() {
    IVec o{};
    return o;
  }
  static IVec isplat(std::uint16_t s) {
    IVec o;
    for (auto& l : o.v) l = s;
    return o;
  }
  static IVec iload(const std::uint16_t* p) {
    IVec o;
    for (int k = 0; k < kIdxLanes; ++k) o.v[k] = p[k];
    return o;
  }
  static void istore(std::uint16_t* dst, const IVec& v) {
    for (int k = 0; k < kIdxLanes; ++k) dst[k] = v.v[k];
  }
  static IVec icmpge(const IVec& a, const IVec& b) {  // unsigned a >= b
    IVec o;
    for (int k = 0; k < kIdxLanes; ++k) o.v[k] = a.v[k] >= b.v[k] ? 0xFFFF : 0;
    return o;
  }
  static IVec iand(const IVec& a, const IVec& b) {
    IVec o;
    for (int k = 0; k < kIdxLanes; ++k) o.v[k] = a.v[k] & b.v[k];
    return o;
  }
  static IVec iblend(const IVec& mask, const IVec& a, const IVec& b) {  // mask ? a : b
    IVec o;
    for (int k = 0; k < kIdxLanes; ++k) o.v[k] = mask.v[k] ? a.v[k] : b.v[k];
    return o;
  }
  /// Widens DP-mask lanes [half*kIdxLanes, (half+1)*kIdxLanes) to 16-bit.
  static IVec expand_mask(const Vec& m, int half) {
    IVec o;
    for (int k = 0; k < kIdxLanes; ++k) {
      o.v[k] = m.v[half * kIdxLanes + k] ? 0xFFFF : 0;
    }
    return o;
  }
  /// Narrows kIdxHalves index-domain masks back to one DP-domain mask.
  static Vec compress_mask(const IVec& m0, const IVec& m1) {
    Vec o;
    for (int k = 0; k < kIdxLanes; ++k) o.v[k] = m0.v[k] ? static_cast<Elem>(~Elem{0}) : 0;
    if constexpr (kIdxHalves == 2) {
      for (int k = 0; k < kIdxLanes; ++k) {
        o.v[kIdxLanes + k] = m1.v[k] ? static_cast<Elem>(~Elem{0}) : 0;
      }
    }
    return o;
  }
};

using OpsU8Generic = OpsGeneric<std::uint8_t, 32, 255>;
using OpsU16Generic = OpsGeneric<std::uint16_t, 16, 65535>;

/// Signed lane vocabularies over 256 bits for kernels whose values are
/// signed, not saturating-unsigned DP cells. So they are separate, smaller
/// vocabularies: add/sub, signed compares, bitwise ops, blend, byte
/// widening/narrowing and a horizontal max, with one lane type each:
///
///   OpsI32Generic   8 int32 lanes. Add/sub/mullo *wrap* (exactly the
///                   modular semantics of _mm256_add_epi32 and friends, so
///                   lanes whose garbage intermediates wrap are still
///                   bit-identical across ISAs, and UBSan-clean, before a
///                   mask discards them). Serves the chaining push kernel
///                   (seedext/chain_kernel.hpp) and the X-drop cell body
///                   (align/xdrop_kernel.hpp) on pairs whose scores need it.
///   OpsI16Generic   16 int16 lanes. Add/sub *saturate* (_mm256_adds_epi16,
///                   _mm256_subs_epi16), so a -inf sentinel at INT16_MIN
///                   stays there. Serves the X-drop cell body on pairs whose
///                   score bound fits int16.
///
/// The AVX2 twins, OpsI32Avx2 and OpsI16Avx2, live in simd_vec_avx2.hpp,
/// which only -mavx2 translation units include.
template <typename T>
struct OpsSignedGeneric {
  static_assert(std::is_same_v<T, std::int16_t> || std::is_same_v<T, std::int32_t>);
  using Elem = T;
  static constexpr int kLanes = 32 / sizeof(T);
  struct Vec {
    T v[kLanes];
  };

  /// An exact lane result brought back to T: int32 wraps (two's
  /// complement), int16 saturates.
  static T narrow(std::int64_t x) {
    if constexpr (sizeof(T) == 4) {
      return static_cast<T>(static_cast<std::uint32_t>(x));
    } else {
      return static_cast<T>(std::clamp<std::int64_t>(x, std::numeric_limits<T>::min(),
                                                     std::numeric_limits<T>::max()));
    }
  }

  static Vec splat(T s) {
    Vec o;
    for (auto& l : o.v) l = s;
    return o;
  }
  static Vec load(const T* p) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = p[k];
    return o;
  }
  static void store(T* dst, const Vec& v) {
    for (int k = 0; k < kLanes; ++k) dst[k] = v.v[k];
  }
  /// Widening load: kLanes bytes, zero-extended (_mm256_cvtepu8_epi32/16).
  static Vec load_bases(const std::uint8_t* p) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = p[k];
    return o;
  }
  /// Narrowing store: the low byte of every lane, kLanes bytes.
  static void store_low_bytes(std::uint8_t* dst, const Vec& v) {
    for (int k = 0; k < kLanes; ++k) dst[k] = static_cast<std::uint8_t>(v.v[k]);
  }
  /// _mm256_add_epi32 (wrapping) or _mm256_adds_epi16 (saturating).
  static Vec add(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = narrow(std::int64_t{a.v[k]} + b.v[k]);
    return o;
  }
  /// _mm256_sub_epi32 (wrapping) or _mm256_subs_epi16 (saturating).
  static Vec sub(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = narrow(std::int64_t{a.v[k]} - b.v[k]);
    return o;
  }
  static Vec smax(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return o;
  }
  static Vec cmpgt(const Vec& a, const Vec& b) {  // signed a > b
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] > b.v[k] ? -1 : 0;
    return o;
  }
  static Vec cmpeq(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] == b.v[k] ? -1 : 0;
    return o;
  }
  static Vec vand(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = static_cast<T>(a.v[k] & b.v[k]);
    return o;
  }
  static Vec vor(const Vec& a, const Vec& b) {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = static_cast<T>(a.v[k] | b.v[k]);
    return o;
  }
  static Vec andnot(const Vec& mask, const Vec& v) {  // v & ~mask
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = static_cast<T>(v.v[k] & ~mask.v[k]);
    return o;
  }
  static Vec blend(const Vec& mask, const Vec& a, const Vec& b) {  // mask ? a : b
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = mask.v[k] ? a.v[k] : b.v[k];
    return o;
  }
  static bool any(const Vec& m) {
    for (int k = 0; k < kLanes; ++k) {
      if (m.v[k]) return true;
    }
    return false;
  }
  /// Largest lane (signed).
  static T hmax(const Vec& a) {
    T m = a.v[0];
    for (int k = 1; k < kLanes; ++k) m = a.v[k] > m ? a.v[k] : m;
    return m;
  }

  // --- int32 only: the chaining kernel's arithmetic ---------------------
  /// Absolute value, _mm256_abs_epi32 semantics (INT_MIN stays INT_MIN).
  static Vec sabs(const Vec& a)
    requires(sizeof(T) == 4)
  {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] < 0 ? narrow(-std::int64_t{a.v[k]}) : a.v[k];
    return o;
  }
  /// Per-lane arithmetic >> by the compile-time immediate (sign-filling).
  template <int Shift>
  static Vec sra(const Vec& a)
    requires(sizeof(T) == 4)
  {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = a.v[k] >> Shift;
    return o;
  }
  /// Low-32-bit product, _mm256_mullo_epi32 semantics (wrapping).
  static Vec mullo(const Vec& a, const Vec& b)
    requires(sizeof(T) == 4)
  {
    Vec o;
    for (int k = 0; k < kLanes; ++k) o.v[k] = narrow(std::int64_t{a.v[k]} * b.v[k]);
    return o;
  }
};

using OpsI32Generic = OpsSignedGeneric<std::int32_t>;
using OpsI16Generic = OpsSignedGeneric<std::int16_t>;

}  // namespace saloba::align::simd
