//===- math/Ntt.h - Negacyclic number-theoretic transform -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative negacyclic NTT over a word-sized prime field, following the
/// Cooley-Tukey / Gentleman-Sande formulation used by production HE
/// libraries. The transform maps Z_P[x]/(x^N + 1) to its evaluation
/// representation, making ring multiplication pointwise.
///
/// The tables also carry the pointwise kernels every evaluation-domain
/// operation bottoms out in: products of two varying residues (alone or
/// added to a third), products by a constant, add, subtract, negate, and
/// the key-switch inner product read through a Galois permutation.
///
/// Transforms and kernels come in two implementations with bit-identical
/// outputs: scalar 64-bit words, and AVX-512 IFMA52 vectors that work on
/// eight 52-bit lanes per instruction (math/Ifma52.h). Each table picks one
/// once, at construction, from the CPU, the length and the modulus; only
/// tests ask for the scalar one on a CPU that could run the vector one.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_NTT_H
#define PORCUPINE_MATH_NTT_H

#include "math/ModArith.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace porcupine {

/// Precomputed twiddle tables for the negacyclic NTT of length \p N over
/// prime \p P (which must satisfy P = 1 mod 2N). Instances are immutable
/// after construction and safe to share.
class NttTables {
public:
  /// Builds tables for transform length \p N (a power of two) modulo prime
  /// \p P. The transforms and pointwise kernels take the AVX-512 IFMA52
  /// path when P < 2^50, N >= 16 and the CPU has avx512f, avx512dq and
  /// avx512ifma; \p AllowVector false keeps them scalar, the oracle the
  /// vector path is tested against.
  NttTables(size_t N, uint64_t P, bool AllowVector = true);

  size_t size() const { return N; }
  uint64_t modulus() const { return P; }

  /// Whether the transforms and kernels run on AVX-512 IFMA52 lanes.
  bool vectorized() const { return Vector; }

  /// In-place forward negacyclic NTT. Input in natural coefficient order;
  /// output in bit-reversed evaluation order (matching inverseTransform).
  void forwardTransform(std::vector<uint64_t> &Values) const;

  /// In-place inverse negacyclic NTT, undoing forwardTransform (including
  /// the 1/N scaling).
  void inverseTransform(std::vector<uint64_t> &Values) const;

  /// Negacyclic convolution: Out = A * B in Z_P[x]/(x^N + 1). Inputs are
  /// coefficient vectors of length N and are left unmodified.
  std::vector<uint64_t> multiply(const std::vector<uint64_t> &A,
                                 const std::vector<uint64_t> &B) const;

  /// Barrett reducer for this prime, for callers reducing single words.
  const BarrettReducer &reducer() const { return Red; }

  /// Pointwise kernels over N residues mod P. Inputs must be reduced; Out
  /// may alias any input.
  /// Out[j] = X[j] * Y[j].
  void mulPointwise(const uint64_t *X, const uint64_t *Y, uint64_t *Out) const;
  /// Out[j] = Out[j] + X[j] * Y[j].
  void mulAddPointwise(const uint64_t *X, const uint64_t *Y,
                       uint64_t *Out) const;
  /// Out[j] = X[j] * W for a constant W < P.
  void mulScalar(const uint64_t *X, uint64_t W, uint64_t *Out) const;
  /// Out[j] = X[j] + Y[j], X[j] - Y[j] and -X[j].
  void addPointwise(const uint64_t *X, const uint64_t *Y, uint64_t *Out) const;
  void subPointwise(const uint64_t *X, const uint64_t *Y, uint64_t *Out) const;
  void negatePointwise(const uint64_t *X, uint64_t *Out) const;

  /// The key-switch inner product of \p Digits digit vectors X[d] with the
  /// key vectors K0[d] and K1[d], all in NTT form. With j' = Perm[j]
  /// (Perm a permutation of the N slots, or null for j' = j):
  ///
  ///   Acc0[j] = (C0 ? C0[j'] : Acc0[j]) + sum_d X[d][j'] * K0[d][j],
  ///   Acc1[j] = Acc1[j] + sum_d X[d][j'] * K1[d][j].
  ///
  /// The products are summed unreduced and reduced once per slot for as
  /// many digits as the accumulator holds. The accumulators must not
  /// alias X, K0, K1 or C0.
  void keySwitchInnerProduct(size_t Digits, const uint64_t *const *X,
                             const uint64_t *const *K0,
                             const uint64_t *const *K1, const uint32_t *Perm,
                             const uint64_t *C0, uint64_t *Acc0,
                             uint64_t *Acc1) const;

private:
  size_t N;
  unsigned LogN;
  uint64_t P;
  bool Vector = false;
  /// Psi^bitrev(i) where Psi is a primitive 2N-th root of unity, paired with
  /// its Shoup precomputation floor(W * 2^64 / P) for fast modular multiply.
  /// The vector path derives its 52-bit Shoup words, floor(W * 2^52 / P),
  /// by shifting these right by 12, so it needs no tables of its own.
  std::vector<uint64_t> PsiBitRev;
  std::vector<uint64_t> PsiBitRevShoup;
  /// Psi^-bitrev(i), with Shoup pairs.
  std::vector<uint64_t> InvPsiBitRev;
  std::vector<uint64_t> InvPsiBitRevShoup;
  uint64_t NInv;
  uint64_t NInvShoup;
  /// The scalar kernels' division-free reduction of 128-bit values mod P
  /// (both factors of a pointwise product vary, so Shoup pairs do not
  /// apply).
  BarrettReducer Red;
  /// The vector path's 52-bit Barrett constants, and how many key-switch
  /// digits one unreduced lane sum holds (set only when Vector).
  Barrett52 Lane;
  size_t LaneDigits = 0;
};

/// The Galois automorphism x -> x^Elt (Elt odd, < 2N) as a permutation of
/// forwardTransform's output slots. Slot i holds the evaluation at
/// psi^(2*rev(i)+1), so the automorphism's output slot i reads input slot
/// rev(((2*rev(i)+1)*Elt mod 2N - 1) / 2). The table is the same for every
/// prime of a given length N.
std::vector<uint32_t> nttGaloisPermutation(size_t N, uint64_t Elt);

/// Reference O(N^2) negacyclic convolution used as a test oracle.
std::vector<uint64_t> naiveNegacyclicMultiply(const std::vector<uint64_t> &A,
                                              const std::vector<uint64_t> &B,
                                              uint64_t P);

} // namespace porcupine

#endif // PORCUPINE_MATH_NTT_H
