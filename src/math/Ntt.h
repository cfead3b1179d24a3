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
/// The butterflies come in two implementations with bit-identical outputs:
/// scalar 64-bit words, and AVX-512 IFMA52 vectors that run eight 52-bit
/// butterflies per instruction. Each table picks one once, at construction,
/// from the CPU, the length and the modulus; only tests ask for the scalar
/// one on a CPU that could run the vector one.
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
  /// \p P. The transforms take the AVX-512 IFMA52 path when P < 2^50,
  /// N >= 16 and the CPU has avx512f and avx512ifma; \p AllowVector false
  /// keeps them scalar, the oracle the vector path is tested against.
  NttTables(size_t N, uint64_t P, bool AllowVector = true);

  size_t size() const { return N; }
  uint64_t modulus() const { return P; }

  /// Whether the transforms run the AVX-512 IFMA52 butterflies.
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

  /// Barrett reducer for this prime, shared with callers doing their own
  /// pointwise products in the evaluation domain.
  const BarrettReducer &reducer() const { return Red; }

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
  /// Division-free pointwise reduction mod P for the multiply() product
  /// loop (both factors vary per slot, so Shoup pairs do not apply).
  BarrettReducer Red;
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
