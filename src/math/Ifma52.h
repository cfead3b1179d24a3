//===- math/Ifma52.h - AVX-512 IFMA52 residue lanes -------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lane arithmetic shared by the vector paths of NttTables (math/Ntt.cpp)
/// and of the RNS converters (math/Crt.cpp): eight residues below 2^50 per
/// 512-bit register, multiplied 52 bits at a time by the IFMA
/// instructions. Internal to src/math.
///
/// The products reduce by the 52-bit Barrett step of Barrett52
/// (math/ModArith.h). Every result is the exact residue, so the vector
/// paths match the scalar ones bit for bit.
///
/// Each vector function enables the ISA for itself alone, so the library
/// still builds for the baseline target; callers run it only after
/// ifma52::cpuSupported() has said yes.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_IFMA52_H
#define PORCUPINE_MATH_IFMA52_H

#include "math/ModArith.h"

#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define PORCUPINE_IFMA52 1
#include <immintrin.h>

#define PORCUPINE_IFMA_TARGET                                                  \
  __attribute__((target("avx512f,avx512dq,avx512ifma")))

namespace porcupine {
namespace ifma52 {

/// Whether this CPU runs the lanes: avx512f and avx512ifma for the
/// products, avx512dq for the converters' 64-bit integer/double casts.
inline bool cpuSupported() {
  static const bool Supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512ifma");
  }();
  return Supported;
}

/// With all lanes set, the maskz_ intrinsic forms equal the plain ones but
/// take no undefined pass-through operand, which GCC 12 reports under
/// -Wmaybe-uninitialized.
constexpr __mmask8 AllLanes = 0xff;

/// Broadcast constants of one prime.
struct Lanes {
  __m512i P, TwoP, NegP, Low52, Mu, R52;
  /// Shift counts Bits - 1 and 53 - Bits of the Barrett quotient.
  __m128i ShiftLo, ShiftHi;
};

PORCUPINE_IFMA_TARGET inline __m512i splat(uint64_t V) {
  return _mm512_set1_epi64(static_cast<long long>(V));
}

PORCUPINE_IFMA_TARGET inline Lanes lanes(const Barrett52 &B) {
  return {splat(B.P),
          splat(2 * B.P),
          splat(0 - B.P),
          splat((1ull << 52) - 1),
          splat(B.Mu),
          splat(B.R52),
          _mm_set_epi64x(0, B.Bits - 1),
          _mm_set_epi64x(0, 53 - B.Bits)};
}

PORCUPINE_IFMA_TARGET inline __m512i load(const uint64_t *X) {
  return _mm512_loadu_si512(X);
}

PORCUPINE_IFMA_TARGET inline void store(uint64_t *X, __m512i V) {
  _mm512_storeu_si512(X, V);
}

/// Eight 64-bit words of \p Base at the 32-bit indices \p Idx.
PORCUPINE_IFMA_TARGET inline __m512i gather(const uint64_t *Base,
                                            __m256i Idx) {
  return _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), AllLanes, Idx,
                                     Base, 8);
}

/// X >= Bound ? X - Bound : X. X - Bound wraps above X exactly when
/// X < Bound, so the unsigned minimum picks the right one.
PORCUPINE_IFMA_TARGET inline __m512i reduceBelow(__m512i X, __m512i Bound) {
  return _mm512_maskz_min_epu64(AllLanes, X, _mm512_sub_epi64(X, Bound));
}

PORCUPINE_IFMA_TARGET inline __m512i addMod(__m512i X, __m512i Y,
                                            const Lanes &C) {
  return reduceBelow(_mm512_add_epi64(X, Y), C.P);
}

/// X - Y mod P: the wrapped difference is the larger of D and D + P.
PORCUPINE_IFMA_TARGET inline __m512i subMod(__m512i X, __m512i Y,
                                            const Lanes &C) {
  __m512i D = _mm512_sub_epi64(X, Y);
  return _mm512_maskz_min_epu64(AllLanes, D, _mm512_add_epi64(D, C.P));
}

/// -X mod P: P - X, which is P only for X = 0.
PORCUPINE_IFMA_TARGET inline __m512i negMod(__m512i X, const Lanes &C) {
  return reduceBelow(_mm512_sub_epi64(C.P, X), C.P);
}

/// floor(W * 2^52 / P) from the 64-bit Shoup word floor(W * 2^64 / P).
PORCUPINE_IFMA_TARGET inline __m512i shoup52(__m512i Shoup64) {
  return _mm512_maskz_srli_epi64(AllLanes, Shoup64, 12);
}

/// X * W mod P in [0, 2P) for X < 2^52 and W < P, given
/// WShoup = floor(W * 2^52 / P).
PORCUPINE_IFMA_TARGET inline __m512i mulShoupLazy(__m512i X, __m512i W,
                                                  __m512i WShoup,
                                                  const Lanes &C) {
  __m512i Zero = _mm512_setzero_si512();
  __m512i Quot = _mm512_madd52hi_epu64(Zero, X, WShoup);
  // X * W - Quot * P < 2P fits 52 bits, so it equals its low 52 bits:
  // X * W + Quot * (2^52 - P) mod 2^52 (IFMA reads NegP's low 52 bits).
  __m512i R = _mm512_madd52lo_epu64(Zero, X, W);
  R = _mm512_madd52lo_epu64(R, Quot, C.NegP);
  return _mm512_and_si512(R, C.Low52);
}

/// (Hi * 2^52 + Lo) mod P for a value below 2^(51 + Bits); Lo may use all
/// 64 bits (a lazy sum of low halves).
PORCUPINE_IFMA_TARGET inline __m512i barrettReduce(__m512i Lo, __m512i Hi,
                                                   const Lanes &C) {
  // floor(z / 2^(Bits-1)) < 2^52: Hi * 2^52 is a multiple of 2^(Bits-1).
  __m512i Top =
      _mm512_add_epi64(_mm512_maskz_sll_epi64(AllLanes, Hi, C.ShiftHi),
                       _mm512_maskz_srl_epi64(AllLanes, Lo, C.ShiftLo));
  __m512i Quot = _mm512_madd52hi_epu64(_mm512_setzero_si512(), Top, C.Mu);
  __m512i R = _mm512_and_si512(_mm512_madd52lo_epu64(Lo, Quot, C.NegP),
                               C.Low52);
  return reduceBelow(reduceBelow(R, C.TwoP), C.P);
}

/// (Hi * 2^52 + Lo) mod P for any value whose Hi + Lo / 2^52 stays below
/// 2^52 (a lazy sum of up to 15 products of residues below 2^50): Hi is
/// reduced first, then H * (2^52 mod P) + Lo lands in barrettReduce's
/// domain.
PORCUPINE_IFMA_TARGET inline __m512i reduceWide(__m512i Lo, __m512i Hi,
                                                const Lanes &C) {
  __m512i Zero = _mm512_setzero_si512();
  Hi = _mm512_add_epi64(Hi, _mm512_maskz_srli_epi64(AllLanes, Lo, 52));
  Lo = _mm512_and_si512(Lo, C.Low52);
  __m512i H = barrettReduce(Hi, Zero, C);
  return barrettReduce(_mm512_madd52lo_epu64(Lo, H, C.R52),
                       _mm512_madd52hi_epu64(Zero, H, C.R52), C);
}

/// (Base + X * Y) mod P for X < 2^50, Y < P and Base < P.
PORCUPINE_IFMA_TARGET inline __m512i mulAddMod(__m512i X, __m512i Y,
                                               __m512i Base, const Lanes &C) {
  return barrettReduce(
      _mm512_madd52lo_epu64(Base, X, Y),
      _mm512_madd52hi_epu64(_mm512_setzero_si512(), X, Y), C);
}

} // namespace ifma52
} // namespace porcupine

#endif // __x86_64__ && __GNUC__

#endif // PORCUPINE_MATH_IFMA52_H
