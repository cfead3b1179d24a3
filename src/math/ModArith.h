//===- math/ModArith.h - 64-bit modular arithmetic --------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Modular arithmetic over word-sized moduli. These primitives back every
/// layer of the stack: the NTT, the BFV ring arithmetic, the batching
/// encoder, and the symbolic polynomial algebra used for verification.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_MODARITH_H
#define PORCUPINE_MATH_MODARITH_H

#include <cassert>
#include <cstdint>

namespace porcupine {

/// Adds two residues modulo \p Q. Operands must already be reduced.
/// Comparing A with Q - B instead of testing A + B never forms a sum that
/// can wrap, so every Q up to 2^64 - 1 works, and the one comparison
/// compiles to a conditional move rather than a branch that mispredicts on
/// about half of random residues.
inline uint64_t addMod(uint64_t A, uint64_t B, uint64_t Q) {
  assert(A < Q && B < Q && "operands must be reduced");
  uint64_t Gap = Q - B;
  return A >= Gap ? A - Gap : A + B;
}

/// Subtracts \p B from \p A modulo \p Q. Operands must already be reduced.
/// Branch-free: the wrapped difference gets Q back through a mask, valid for
/// every Q up to 2^64 - 1.
inline uint64_t subMod(uint64_t A, uint64_t B, uint64_t Q) {
  assert(A < Q && B < Q && "operands must be reduced");
  uint64_t D = A - B;
  return D + (Q & -static_cast<uint64_t>(A < B));
}

/// Negates \p A modulo \p Q.
inline uint64_t negMod(uint64_t A, uint64_t Q) {
  assert(A < Q && "operand must be reduced");
  return A == 0 ? 0 : Q - A;
}

/// Multiplies two residues modulo \p Q using 128-bit intermediates.
inline uint64_t mulMod(uint64_t A, uint64_t B, uint64_t Q) {
  assert(Q != 0);
  return static_cast<uint64_t>(static_cast<unsigned __int128>(A) * B % Q);
}

/// Shoup precomputation for a fixed multiplicand \p W < \p P:
/// floor(W * 2^64 / P). Pairing W with this word makes mulModShoup cost two
/// machine multiplies and no division.
inline uint64_t shoupPrecompute(uint64_t W, uint64_t P) {
  assert(W < P && "Shoup constant must be reduced");
  return static_cast<uint64_t>((static_cast<unsigned __int128>(W) << 64) / P);
}

/// Computes (X * W) mod P given the Shoup pair (W, WShoup). Requires W < P
/// and P < 2^63; X may be any 64-bit value.
inline uint64_t mulModShoup(uint64_t X, uint64_t W, uint64_t WShoup,
                            uint64_t P) {
  uint64_t Approx = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(X) * WShoup) >> 64);
  uint64_t R = X * W - Approx * P;
  return R >= P ? R - P : R;
}

/// mulModShoup without the final conditional correction: the result lies in
/// [0, 2P). The workhorse of lazy-reduction NTT butterflies (Harvey's
/// formulation), where values are allowed to drift up to 4P between
/// reductions and P < 2^62 guarantees no 64-bit overflow.
inline uint64_t mulModShoupLazy(uint64_t X, uint64_t W, uint64_t WShoup,
                                uint64_t P) {
  uint64_t Approx = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(X) * WShoup) >> 64);
  return X * W - Approx * P;
}

/// Barrett reduction of 128-bit values modulo a fixed odd word modulus
/// P < 2^62 (every NTT prime qualifies). Unlike mulModShoup neither operand
/// needs to be fixed, so this serves the pointwise products of NTT-domain
/// convolutions where both sides vary per slot. Construction costs one
/// 128-bit division; each reduce() is four multiplies and no division.
class BarrettReducer {
public:
  BarrettReducer() = default;
  explicit BarrettReducer(uint64_t P) : P(P) {
    assert(P > 1 && (P & 1) != 0 && P < (1ull << 62) &&
           "Barrett modulus must be odd and leave headroom");
    // For odd P, floor((2^128 - 1) / P) == floor(2^128 / P).
    unsigned __int128 Ratio = static_cast<unsigned __int128>(-1) / P;
    R0 = static_cast<uint64_t>(Ratio);
    R1 = static_cast<uint64_t>(Ratio >> 64);
  }

  uint64_t modulus() const { return P; }

  /// Reduces any 128-bit value modulo P.
  uint64_t reduce(unsigned __int128 Z) const {
    uint64_t Z0 = static_cast<uint64_t>(Z);
    uint64_t Z1 = static_cast<uint64_t>(Z >> 64);
    // Quotient estimate: high 64 bits of (Z * floor(2^128/P)) >> 128,
    // accumulated without 128-bit overflow. The estimate is off by at most
    // two, corrected below.
    uint64_t Carry = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Z0) * R0) >> 64);
    unsigned __int128 U = static_cast<unsigned __int128>(Z0) * R1 + Carry;
    unsigned __int128 V =
        static_cast<unsigned __int128>(Z1) * R0 + static_cast<uint64_t>(U);
    uint64_t QHat = Z1 * R1 + static_cast<uint64_t>(U >> 64) +
                    static_cast<uint64_t>(V >> 64);
    uint64_t R = Z0 - QHat * P;
    if (R >= P)
      R -= P;
    if (R >= P)
      R -= P;
    return R;
  }

  /// (A * B) mod P without the division of the generic mulMod.
  uint64_t mulMod(uint64_t A, uint64_t B) const {
    return reduce(static_cast<unsigned __int128>(A) * B);
  }

private:
  uint64_t P = 0;
  uint64_t R0 = 0;
  uint64_t R1 = 0;
};

/// The per-prime constants of the 52-bit Barrett product that the IFMA52
/// lanes run (math/Ifma52.h). For a prime P < 2^50 of bit length L and
/// Mu = floor(2^(51+L) / P), a value z < 2^(51+L) gets the quotient
/// estimate floor(floor(z / 2^(L-1)) * Mu / 2^52), at most 2 below
/// floor(z / P), so z - estimate * P < 3P < 2^52 is known from z's low 52
/// bits and two conditional subtractions finish the reduction.
struct Barrett52 {
  uint64_t P = 0;
  /// floor(2^(51 + Bits) / P): below 2^52 because P > 2^(Bits-1).
  uint64_t Mu = 0;
  /// 2^52 mod P.
  uint64_t R52 = 0;
  /// Bit length of P.
  unsigned Bits = 0;

  Barrett52() = default;
  explicit Barrett52(uint64_t P) : P(P) {
    assert(P > 2 && P < (1ull << 50) && "52-bit Barrett needs 2 < P < 2^50");
    Bits = 64 - static_cast<unsigned>(__builtin_clzll(P));
    Mu = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(1) << (51 + Bits)) / P);
    R52 = (1ull << 52) % P;
  }

  /// How many products a * b (a <= MaxA, b <= MaxB) can be added to a base
  /// <= MaxBase while the sum stays inside the reduction's domain
  /// z < 2^(51 + Bits); capped at 1024, well before a 64-bit sum of low
  /// 52-bit halves could wrap.
  uint64_t lazyTerms(uint64_t MaxA, uint64_t MaxB, uint64_t MaxBase) const {
    unsigned __int128 Limit = static_cast<unsigned __int128>(1) << (51 + Bits);
    assert(MaxBase < Limit && MaxA != 0 && MaxB != 0 && "degenerate bound");
    unsigned __int128 Terms =
        (Limit - 1 - MaxBase) / (static_cast<unsigned __int128>(MaxA) * MaxB);
    return Terms < 1024 ? static_cast<uint64_t>(Terms) : 1024;
  }
};

/// Raises \p Base to \p Exp modulo \p Q by square-and-multiply.
uint64_t powMod(uint64_t Base, uint64_t Exp, uint64_t Q);

/// Returns the inverse of \p A modulo \p Q via the extended Euclidean
/// algorithm. \p A must be coprime with \p Q (asserted).
uint64_t invMod(uint64_t A, uint64_t Q);

/// Maps a signed value into the canonical residue range [0, Q).
inline uint64_t toResidue(int64_t V, uint64_t Q) {
  int64_t R = V % static_cast<int64_t>(Q);
  if (R < 0)
    R += static_cast<int64_t>(Q);
  return static_cast<uint64_t>(R);
}

/// Maps a residue in [0, Q) to its centered representative in
/// (-Q/2, Q/2].
inline int64_t toCentered(uint64_t R, uint64_t Q) {
  assert(R < Q && "operand must be reduced");
  if (R > Q / 2)
    return static_cast<int64_t>(R) - static_cast<int64_t>(Q);
  return static_cast<int64_t>(R);
}

} // namespace porcupine

#endif // PORCUPINE_MATH_MODARITH_H
