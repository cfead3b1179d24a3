//===- bfv/RingPoly.cpp - RNS ring elements --------------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/RingPoly.h"

#include "math/ModArith.h"

#include <cassert>

using namespace porcupine;

RingPoly RingPoly::zero(const BfvContext &Ctx) {
  RingPoly P;
  P.Residues.assign(Ctx.coeffBasis().count(),
                    std::vector<uint64_t>(Ctx.polyDegree(), 0));
  return P;
}

RingPoly RingPoly::zero(const BfvContext &Ctx, bool InNttForm) {
  RingPoly P = zero(Ctx);
  P.Ntt = InNttForm;
  return P;
}

RingPoly RingPoly::sampleUniform(const BfvContext &Ctx, Rng &R) {
  RingPoly P = zero(Ctx);
  for (size_t I = 0; I < P.Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    for (auto &V : P.Residues[I])
      V = R.below(Q);
  }
  return P;
}

/// Embeds per-coefficient signed smalls (|v| < every q_i) into all residue
/// vectors: a negative v maps to q_i - |v|, with no division.
static RingPoly embedSmallSigned(const BfvContext &Ctx,
                                 const std::vector<int64_t> &Values) {
  RingPoly P = RingPoly::zero(Ctx);
  for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    auto &Res = P.residues(I);
    for (size_t J = 0; J < Values.size(); ++J) {
      int64_t V = Values[J];
      assert(V > -static_cast<int64_t>(Q) && V < static_cast<int64_t>(Q) &&
             "value is not small for this prime");
      Res[J] = V < 0 ? Q - static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
    }
  }
  return P;
}

RingPoly RingPoly::sampleTernary(const BfvContext &Ctx, Rng &R) {
  std::vector<int64_t> Values(Ctx.polyDegree());
  for (auto &V : Values)
    V = R.ternary();
  return embedSmallSigned(Ctx, Values);
}

RingPoly RingPoly::sampleError(const BfvContext &Ctx, Rng &R) {
  std::vector<int64_t> Values(Ctx.polyDegree());
  for (auto &V : Values)
    V = R.centeredError();
  return embedSmallSigned(Ctx, Values);
}

RingPoly RingPoly::fromSignedCoeffs(const BfvContext &Ctx,
                                    const std::vector<int64_t> &Coeffs) {
  assert(Coeffs.size() <= Ctx.polyDegree() && "too many coefficients");
  std::vector<int64_t> Padded = Coeffs;
  Padded.resize(Ctx.polyDegree(), 0);
  return embedSmallSigned(Ctx, Padded);
}

std::vector<BigInt> RingPoly::liftCentered(const BfvContext &Ctx) const {
  assert(!Ntt && "lift requires coefficient form");
  size_t N = Ctx.polyDegree();
  std::vector<BigInt> Out(N);
  std::vector<uint64_t> Slice(Residues.size());
  for (size_t J = 0; J < N; ++J) {
    for (size_t I = 0; I < Residues.size(); ++I)
      Slice[I] = Residues[I][J];
    Out[J] = Ctx.coeffBasis().reconstructCentered(Slice);
  }
  return Out;
}

std::vector<BigInt> RingPoly::liftCanonical(const BfvContext &Ctx) const {
  assert(!Ntt && "lift requires coefficient form");
  size_t N = Ctx.polyDegree();
  std::vector<BigInt> Out(N);
  std::vector<uint64_t> Slice(Residues.size());
  for (size_t J = 0; J < N; ++J) {
    for (size_t I = 0; I < Residues.size(); ++I)
      Slice[I] = Residues[I][J];
    Out[J] = Ctx.coeffBasis().reconstruct(Slice);
  }
  return Out;
}

void RingPoly::toNtt(const BfvContext &Ctx) {
  assert(!Ntt && "already in NTT form");
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].forwardTransform(Residues[I]);
  Ntt = true;
}

void RingPoly::fromNtt(const BfvContext &Ctx) {
  assert(Ntt && "not in NTT form");
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].inverseTransform(Residues[I]);
  Ntt = false;
}

void RingPoly::addAssign(const BfvContext &Ctx, const RingPoly &RHS) {
  assert(Ntt == RHS.Ntt && "domain mismatch");
  for (size_t I = 0; I < Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    auto &A = Residues[I];
    const auto &B = RHS.Residues[I];
    for (size_t J = 0; J < A.size(); ++J)
      A[J] = addMod(A[J], B[J], Q);
  }
}

void RingPoly::subAssign(const BfvContext &Ctx, const RingPoly &RHS) {
  assert(Ntt == RHS.Ntt && "domain mismatch");
  for (size_t I = 0; I < Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    auto &A = Residues[I];
    const auto &B = RHS.Residues[I];
    for (size_t J = 0; J < A.size(); ++J)
      A[J] = subMod(A[J], B[J], Q);
  }
}

void RingPoly::negate(const BfvContext &Ctx) {
  for (size_t I = 0; I < Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    for (auto &V : Residues[I])
      V = negMod(V, Q);
  }
}

RingPoly RingPoly::multiply(const BfvContext &Ctx, const RingPoly &A,
                            const RingPoly &B) {
  RingPoly FA = A, FB = B;
  if (!FA.Ntt)
    FA.toNtt(Ctx);
  if (!FB.Ntt)
    FB.toNtt(Ctx);
  RingPoly Out = zero(Ctx);
  Out.Ntt = true;
  for (size_t I = 0; I < Out.Residues.size(); ++I) {
    const BarrettReducer &Red = Ctx.coeffNtt()[I].reducer();
    auto &O = Out.Residues[I];
    const auto &X = FA.Residues[I];
    const auto &Y = FB.Residues[I];
    for (size_t J = 0; J < O.size(); ++J)
      O[J] = Red.mulMod(X[J], Y[J]);
  }
  Out.fromNtt(Ctx);
  return Out;
}

void RingPoly::mulAssignNtt(const BfvContext &Ctx, const RingPoly &RHS) {
  assert(Ntt && RHS.Ntt && "mulAssignNtt requires NTT form");
  for (size_t I = 0; I < Residues.size(); ++I) {
    const BarrettReducer &Red = Ctx.coeffNtt()[I].reducer();
    auto &O = Residues[I];
    const auto &X = RHS.Residues[I];
    for (size_t J = 0; J < O.size(); ++J)
      O[J] = Red.mulMod(O[J], X[J]);
  }
}

void RingPoly::scaleByScalars(const BfvContext &Ctx,
                              const std::vector<uint64_t> &ScalarModPrime) {
  assert(ScalarModPrime.size() == Residues.size() && "scalar table mismatch");
  for (size_t I = 0; I < Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    uint64_t S = ScalarModPrime[I] % Q;
    for (auto &V : Residues[I])
      V = mulMod(V, S, Q);
  }
}

RingPoly RingPoly::applyGalois(const BfvContext &Ctx, uint64_t Elt) const {
  assert(!Ntt && "Galois automorphism requires coefficient form");
  size_t N = Ctx.polyDegree();
  assert(Elt % 2 == 1 && Elt < 2 * N && "Galois element must be odd, < 2N");
  RingPoly Out = zero(Ctx);
  for (size_t I = 0; I < Residues.size(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    const auto &In = Residues[I];
    auto &O = Out.Residues[I];
    for (size_t J = 0; J < N; ++J) {
      // x^J -> x^(J * Elt); exponents reduce mod 2N with x^N = -1.
      uint64_t E = (J * Elt) % (2 * N);
      if (E < N)
        O[E] = In[J];
      else
        O[E - N] = negMod(In[J], Q);
    }
  }
  return Out;
}
