//===- math/Crt.h - Chinese-remainder bases ---------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRT residue-number-system support. The BFV coefficient modulus Q is a
/// product of word-sized NTT primes; ring elements live as per-prime residue
/// vectors. Every per-call step works on those residues directly: fast base
/// conversion (RnsBaseConverter), the multiply's scale-and-round
/// (RnsScaleRounder) and decryption's read-out, which yields the message
/// and the noise meter's numerator in one word-array pass (RnsReadOut).
/// Wide integers (CrtBasis::reconstruct and friends) remain only for the
/// wide-integer oracle paths and for the one-time constants of key and
/// context setup.
///
/// The fast conversion and the scale-and-round run eight coefficients at a
/// time on AVX-512 IFMA52 lanes (math/Ifma52.h) when every prime of both
/// bases is below 2^50, the source basis has at most 15 primes and the
/// target at most 16 (alpha's values fit one 16-entry lane permute), and
/// the CPU has avx512f, avx512dq and avx512ifma, as NttTables decides for
/// its transforms. The lanes repeat the scalar
/// code's double-precision alpha operation for operation (unfused) and
/// compute every integer exactly, so both paths give the same words.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_CRT_H
#define PORCUPINE_MATH_CRT_H

#include "math/BigInt.h"
#include "math/ModArith.h"

#include <cstdint>
#include <vector>

namespace porcupine {

/// An RNS basis q_0, ..., q_{k-1} of pairwise-coprime word primes with
/// precomputed reconstruction constants.
class CrtBasis {
public:
  explicit CrtBasis(std::vector<uint64_t> Primes);

  const std::vector<uint64_t> &primes() const { return Primes; }
  size_t count() const { return Primes.size(); }

  /// The full modulus Q = prod q_i.
  const BigInt &modulus() const { return Q; }

  /// Q / 2 rounded down, used for centered reduction.
  const BigInt &halfModulus() const { return HalfQ; }

  /// Maps a wide integer to its residue vector (canonical [0, q_i)).
  std::vector<uint64_t> decompose(const BigInt &Value) const;

  /// Reconstructs the canonical representative X in [0, Q) from residues.
  BigInt reconstruct(const std::vector<uint64_t> &Residues) const;

  /// Reconstructs the centered representative in (-Q/2, Q/2].
  BigInt reconstructCentered(const std::vector<uint64_t> &Residues) const;

  /// (Q / q_i) mod q_i inverse table, used by the fast base converter.
  const std::vector<uint64_t> &invPunctured() const { return InvPunctured; }
  /// Q / q_i as wide integers.
  const std::vector<BigInt> &puncturedProducts() const {
    return PuncturedProducts;
  }

private:
  std::vector<uint64_t> Primes;
  BigInt Q;
  BigInt HalfQ;
  /// PuncturedProducts[i] = Q / q_i.
  std::vector<BigInt> PuncturedProducts;
  /// InvPunctured[i] = (Q / q_i)^-1 mod q_i.
  std::vector<uint64_t> InvPunctured;
};

/// Decryption's read-out and the noise meter in one pass over the
/// coefficients of c(s). For a coefficient x over the basis Q = prod q_i
/// and the plaintext modulus t, write t * x = alpha * Q + r with r centered
/// in (-Q/2, Q/2] (Q is odd, so no ties). Then r is the invariant noise's
/// numerator, and the message is round(t * x / Q) mod t = [-r * Q^-1]_t.
/// Per coefficient, with no division and no wide integer:
///
///   c_i = [x_i * t * (Q/q_i)^-1]_{q_i}          (one Shoup product),
///   S = sum_i c_i * (Q/q_i)                     (word limbs, S < k * Q),
///
/// then Q is subtracted while S >= Q, counting the subtractions, and
/// |r| = min(S, Q - S) with alpha = count + (Q - S < S). Since
/// r = S - alpha * Q exactly,
///
///   m = [alpha + sum_i c_i * [-(Q/q_i) * Q^-1]_t]_t
///
/// is one 128-bit sum and one Barrett reduction. alpha is exact, so the
/// message agrees with the wide-integer decryption on every ciphertext.
/// The limb count is a template parameter of the pass, fixed per basis:
/// two limbs for the 100- and 109-bit rungs, three for 175 bits, four for
/// 218.
class RnsReadOut {
public:
  RnsReadOut(const CrtBasis &Basis, uint64_t T);

  /// Reads out the coefficients of \p Residues (indexed
  /// [prime][coefficient], values reduced): writes m_j to \p Message[j]
  /// for every coefficient j when \p Message is not null, and returns
  /// max_j |r_j|, the noise numerator.
  BigInt run(const std::vector<std::vector<uint64_t>> &Residues,
             uint64_t *Message) const;

private:
  /// The most limbs a pass supports: sums of k terms below Q for every Q
  /// a BigInt-backed context can hold.
  static constexpr unsigned MaxLimbs = 6;

  std::vector<uint64_t> Primes;
  /// W[i] = [t * (Q/q_i)^-1]_{q_i} with its Shoup word.
  std::vector<uint64_t> W;
  std::vector<uint64_t> WShoup;
  /// MessageWeight[i] = [-(Q/q_i) * Q^-1]_t, and the reduction mod t.
  std::vector<uint64_t> MessageWeight;
  BarrettReducer TRed;
  /// Little-endian word arrays of Limbs words each: enough for sums of k
  /// terms below Q. PunctLimbs holds Q/q_i at offset i * Limbs. QWords is
  /// Q's own word count, which every |r| < Q/2 fits.
  unsigned Limbs = 0;
  unsigned QWords = 0;
  std::vector<uint64_t> PunctLimbs;
  std::vector<uint64_t> QLimbs;

  template <unsigned L>
  void runLimbs(const std::vector<std::vector<uint64_t>> &Residues,
                uint64_t *Message, uint64_t *Max) const;
};

/// Fast base conversion between RNS bases (the BEHZ/HPS building block):
/// given the residues of x over a source basis Q = prod q_i, produces the
/// residues of the *centered* representative [x]_Q in (-Q/2, Q/2] over a
/// target basis — one multiply-add per (source prime, target prime) pair,
/// one reduction per target prime, and no wide integers.
///
/// The lift x = sum_i c_i * (Q/q_i) - alpha * Q needs the integer
/// alpha = round(sum_i c_i / q_i), which convert() estimates in double
/// precision (error ~2^-50 relative). An estimate that lands on the wrong
/// side of a rounding boundary shifts the result by exactly Q — harmless in
/// the BFV multiply pipeline, where a +-Q perturbation of a lift changes
/// the final ciphertext only by scheme noise far below the decryption
/// threshold (see Evaluator.cpp). Decryption, whose output must be exact,
/// counts alpha exactly instead (RnsReadOut).
class RnsBaseConverter {
public:
  /// \p AllowVector false keeps convert() scalar, the oracle its vector
  /// path is tested against.
  RnsBaseConverter(const CrtBasis &From, const CrtBasis &To,
                   bool AllowVector = true);

  /// Converts per-source-prime residue vectors (all of length \p N equal to
  /// In[i].size(), values reduced) into per-target-prime residue vectors.
  /// Out is resized; words it already holds are overwritten, not cleared.
  void convert(const std::vector<std::vector<uint64_t>> &In,
               std::vector<std::vector<uint64_t>> &Out) const;

  size_t sourceCount() const { return SrcPrimes.size(); }
  size_t targetCount() const { return TgtPrimes.size(); }

  /// Whether convert() runs on AVX-512 IFMA52 lanes.
  bool vectorized() const { return Vector; }

private:
  std::vector<uint64_t> SrcPrimes;
  std::vector<uint64_t> TgtPrimes;
  bool Vector = false;
  /// InvPunct[i] = (Q/q_i)^-1 mod q_i with Shoup pair.
  std::vector<uint64_t> InvPunct;
  std::vector<uint64_t> InvPunctShoup;
  /// 1.0 / q_i for the floating-point alpha estimate.
  std::vector<double> InvSrcPrime;
  /// PunctModTgt[j][i] = (Q/q_i) mod t_j (target-major for locality in the
  /// inner accumulation loop). The per-coefficient sum accumulates in 128
  /// bits — k products below 2^117 each — and reduces once per target prime
  /// through TgtRed.
  std::vector<std::vector<uint64_t>> PunctModTgt;
  std::vector<BarrettReducer> TgtRed;
  /// AlphaQModTgt[a][j] = (a * Q) mod t_j for a in [0, k]; alpha of a
  /// centered lift always lands in that range.
  std::vector<std::vector<uint64_t>> AlphaQModTgt;
  /// The vector path's constants: 52-bit Barrett constants per source and
  /// target prime; AlphaQLanes[j * 16 + a] = AlphaQModTgt[a][j], padded to
  /// the 16 entries of a two-register lane permute; and whether a
  /// target's unreduced sum can leave the one-step reduction's domain.
  std::vector<Barrett52> SrcLane, TgtLane;
  std::vector<uint64_t> AlphaQLanes;
  bool WideSums = false;

  /// The scalar conversion of coefficients [From, N).
  void convertScalar(const std::vector<std::vector<uint64_t>> &In,
                     std::vector<std::vector<uint64_t>> &Out,
                     size_t From) const;
};

/// The BFV multiply's scale-and-round in one pass: given the residues of x
/// over a source basis B = prod p_j, with x taken centered and |x| / B far
/// below 1/2 (a BFV tensor coefficient stays under 2^-9), produces the
/// residues of round(t * x / Q) over a target basis Q = prod q_i, with no
/// wide integers and no detour through a third basis. Per coefficient:
///
///   b_j = [x_j * (B/p_j)^-1]_{p_j},  alpha = round(sum_j b_j / p_j),
///   x = sum_j b_j * (B/p_j) - alpha * B,
///   t * x / Q = sum_j b_j * (I_j + F_j) - (C_alpha - G_alpha),
///
/// where t * (B/p_j) / Q = I_j + F_j and alpha * t * B / Q = C_alpha - G_alpha
/// split into integers I, C and fractions F in [0, 1), G in (0, 1], all
/// precomputed once per basis pair. So
///
///   round(t * x / Q) = sum_j b_j * I_j - C_alpha
///                      + round(sum_j b_j * F_j + G_alpha),
///
/// whose integer terms reduce mod each q_i with one 128-bit accumulation.
/// alpha in double precision is exact: sum_j b_j / p_j = alpha + x / B sits
/// 1/2 - |x| / B from a rounding boundary, far beyond the estimate's
/// ~k * 2^-52 error. The fractions are kept to 128 bits and summed in
/// 64.64 fixed point, which errs by under 2^-62, so the result is exactly
/// round(t * x / Q) unless t * x / Q sits within 2^-62 of a half-integer.
/// That rounded sum is an exact integer function of the b_j, which the
/// vector path reproduces in 52-bit limbs.
class RnsScaleRounder {
public:
  /// \p AllowVector false keeps scaleAndRound() scalar, the oracle its
  /// vector path is tested against.
  RnsScaleRounder(const CrtBasis &From, const CrtBasis &To, uint64_t T,
                  bool AllowVector = true);

  /// Maps per-source-prime residue vectors of x (all of equal length,
  /// values reduced) to per-target-prime residue vectors of
  /// round(t * x / Q). Out is resized.
  void scaleAndRound(const std::vector<std::vector<uint64_t>> &In,
                     std::vector<std::vector<uint64_t>> &Out) const;

  /// Whether scaleAndRound() runs on AVX-512 IFMA52 lanes.
  bool vectorized() const { return Vector; }

private:
  std::vector<uint64_t> SrcPrimes;
  std::vector<uint64_t> TgtPrimes;
  bool Vector = false;
  /// (B/p_j)^-1 mod p_j with Shoup pair, and 1.0 / p_j.
  std::vector<uint64_t> InvPunct;
  std::vector<uint64_t> InvPunctShoup;
  std::vector<double> InvSrcPrime;
  /// F_j as 128-bit fixed point: floor(F_j * 2^128) = FracHi[j] * 2^64 +
  /// FracLo[j].
  std::vector<uint64_t> FracHi;
  std::vector<uint64_t> FracLo;
  /// IntModTgt[i][j] = I_j mod q_i (target-major, like the converter's).
  std::vector<std::vector<uint64_t>> IntModTgt;
  std::vector<BarrettReducer> TgtRed;
  /// For alpha in [0, k]: CModTgt[alpha][i] = C_alpha mod q_i and
  /// GFixed[alpha] = floor(G_alpha * 2^64).
  std::vector<std::vector<uint64_t>> CModTgt;
  std::vector<unsigned __int128> GFixed;
  /// The vector path's constants. FracLimbs[3j..3j+2] hold floor(F_j *
  /// 2^128) in 52-bit limbs. GLanes[a] and GLanes[16 + a] hold limbs 1 and
  /// 2 of GFixed[a] * 2^64 + 2^127 (limb 0 is zero), and
  /// CLanes[i * 16 + a] = CModTgt[a][i], each padded for a two-register
  /// lane permute. SrcLane, TgtLane and WideSums as in RnsBaseConverter.
  std::vector<uint64_t> FracLimbs;
  std::vector<uint64_t> GLanes;
  std::vector<uint64_t> CLanes;
  std::vector<Barrett52> SrcLane, TgtLane;
  bool WideSums = false;

  /// The scalar scale-and-round of coefficients [From, N).
  void scaleAndRoundScalar(const std::vector<std::vector<uint64_t>> &In,
                           std::vector<std::vector<uint64_t>> &Out,
                           size_t From) const;
};

} // namespace porcupine

#endif // PORCUPINE_MATH_CRT_H
