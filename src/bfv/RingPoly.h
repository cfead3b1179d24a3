//===- bfv/RingPoly.h - RNS ring elements -----------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elements of R_Q = Z_Q[x]/(x^N + 1) stored in residue-number-system form:
/// one length-N residue vector per coefficient prime. Cheap operations
/// (add/sub/negate, pointwise and scalar products, Galois automorphisms)
/// act per prime, each through its NttTables' pointwise kernels, so they
/// run on the IFMA52 lanes wherever the transforms do; multiplication goes
/// through the per-prime NTT; exact lifts to wide integers remain for the
/// wide-integer oracle paths (BigInt multiply, decryption, noise metering
/// and power-of-two digit decomposition).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_RINGPOLY_H
#define PORCUPINE_BFV_RINGPOLY_H

#include "bfv/BfvContext.h"
#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace porcupine {

/// An element of R_Q in RNS representation. The Ntt flag records whether
/// each residue vector is in coefficient or evaluation (NTT) order; both
/// operands of an operation must agree (asserted).
class RingPoly {
public:
  RingPoly() = default;

  /// The all-zero element in coefficient form.
  static RingPoly zero(const BfvContext &Ctx);

  /// The all-zero element with the form flag set directly: zero is a fixed
  /// point of the NTT, so no transform is ever needed.
  static RingPoly zero(const BfvContext &Ctx, bool InNttForm);

  /// Uniformly random element (the "a" component of keys).
  static RingPoly sampleUniform(const BfvContext &Ctx, Rng &R);

  /// Random ternary element with coefficients in {-1, 0, 1} (secrets and
  /// encryption randomness).
  static RingPoly sampleTernary(const BfvContext &Ctx, Rng &R);

  /// Small centered error element (binomial approximation of the discrete
  /// Gaussian).
  static RingPoly sampleError(const BfvContext &Ctx, Rng &R);

  /// Embeds signed coefficients (|c| << q_i) into RNS form.
  static RingPoly fromSignedCoeffs(const BfvContext &Ctx,
                                   const std::vector<int64_t> &Coeffs);

  /// Lifts every coefficient to its centered representative in
  /// (-Q/2, Q/2]. Requires coefficient form.
  std::vector<BigInt> liftCentered(const BfvContext &Ctx) const;

  /// Lifts every coefficient to its canonical representative in [0, Q).
  /// Requires coefficient form.
  std::vector<BigInt> liftCanonical(const BfvContext &Ctx) const;

  bool isNtt() const { return Ntt; }
  size_t primeCount() const { return Residues.size(); }

  /// Residue vector for prime \p I (length N).
  std::vector<uint64_t> &residues(size_t I) { return Residues[I]; }
  const std::vector<uint64_t> &residues(size_t I) const { return Residues[I]; }

  /// All residue vectors, indexed [prime][coefficient] — the layout the
  /// RnsBaseConverter consumes and produces. The mutable overload exists so
  /// converter output can be written in place; callers must keep every
  /// vector at length N and values reduced.
  const std::vector<std::vector<uint64_t>> &allResidues() const {
    return Residues;
  }
  std::vector<std::vector<uint64_t>> &allResidues() { return Residues; }

  /// In-place domain conversions.
  void toNtt(const BfvContext &Ctx);
  void fromNtt(const BfvContext &Ctx);

  /// Idempotent conversions: no-ops when already in the requested form.
  void ensureNtt(const BfvContext &Ctx) {
    if (!Ntt)
      toNtt(Ctx);
  }
  void ensureCoeff(const BfvContext &Ctx) {
    if (Ntt)
      fromNtt(Ctx);
  }

  /// Element-wise ring operations (both operands in the same domain).
  void addAssign(const BfvContext &Ctx, const RingPoly &RHS);
  void subAssign(const BfvContext &Ctx, const RingPoly &RHS);
  void negate(const BfvContext &Ctx);

  /// Full ring product computed via the per-prime NTT. Inputs may be in
  /// either domain (converted as needed); the result is in coefficient
  /// form. Correct only when the true integer product is intended mod Q
  /// (i.e. ordinary R_Q multiplication).
  static RingPoly multiply(const BfvContext &Ctx, const RingPoly &A,
                           const RingPoly &B);

  /// Pointwise multiply in NTT form: *this *= RHS. Both must be in NTT
  /// form; RHS may alias *this.
  void mulAssignNtt(const BfvContext &Ctx, const RingPoly &RHS);

  /// The pointwise product X * Y of two NTT-form elements, written into a
  /// new element instead of a copy of one operand.
  static RingPoly productNtt(const BfvContext &Ctx, const RingPoly &X,
                             const RingPoly &Y);

  /// Pointwise multiply-add in NTT form: *this += X * Y, one pass.
  void addProductNtt(const BfvContext &Ctx, const RingPoly &X,
                     const RingPoly &Y);

  /// Multiplies by the per-prime scalar table \p ScalarModPrime
  /// (ScalarModPrime[i] applies to prime i); works in either domain.
  void scaleByScalars(const BfvContext &Ctx,
                      const std::vector<uint64_t> &ScalarModPrime);

  /// Applies the Galois automorphism x -> x^Elt (Elt odd, 0 < Elt < 2N).
  /// Requires coefficient form.
  RingPoly applyGalois(const BfvContext &Ctx, uint64_t Elt) const;

  bool operator==(const RingPoly &RHS) const {
    return Ntt == RHS.Ntt && Residues == RHS.Residues;
  }

private:
  /// Residues[i][j] = coefficient j mod prime i.
  std::vector<std::vector<uint64_t>> Residues;
  bool Ntt = false;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_RINGPOLY_H
