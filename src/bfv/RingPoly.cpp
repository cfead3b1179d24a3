//===- bfv/RingPoly.cpp - RNS ring elements --------------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/RingPoly.h"

#include "math/ModArith.h"

#include <algorithm>
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

/// Embeds per-coefficient signed smalls, |v| <= \p Bound for every v, into
/// all residue vectors: a negative v maps to q_i - |v|, with no division.
/// The bound is checked once against the smallest prime.
static RingPoly embedSmallSigned(const BfvContext &Ctx,
                                 const std::vector<int64_t> &Values,
                                 uint64_t Bound) {
  const std::vector<uint64_t> &Primes = Ctx.coeffBasis().primes();
  (void)Bound; // Only read by the assert.
  assert(Bound < *std::min_element(Primes.begin(), Primes.end()) &&
         "values are not small for every prime");
  RingPoly P = RingPoly::zero(Ctx);
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Q = Primes[I];
    auto &Res = P.residues(I);
    for (size_t J = 0; J < Values.size(); ++J) {
      int64_t V = Values[J];
      Res[J] = V < 0 ? Q - static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
    }
  }
  return P;
}

RingPoly RingPoly::sampleTernary(const BfvContext &Ctx, Rng &R) {
  std::vector<int64_t> Values(Ctx.polyDegree());
  for (auto &V : Values)
    V = R.ternary();
  return embedSmallSigned(Ctx, Values, 1);
}

RingPoly RingPoly::sampleError(const BfvContext &Ctx, Rng &R) {
  std::vector<int64_t> Values(Ctx.polyDegree());
  for (auto &V : Values)
    V = R.centeredError();
  return embedSmallSigned(Ctx, Values, Rng::MaxCenteredError);
}

RingPoly RingPoly::fromSignedCoeffs(const BfvContext &Ctx,
                                    const std::vector<int64_t> &Coeffs) {
  assert(Coeffs.size() <= Ctx.polyDegree() && "too many coefficients");
  std::vector<int64_t> Padded = Coeffs;
  Padded.resize(Ctx.polyDegree(), 0);
  uint64_t Bound = 0;
  for (int64_t V : Padded)
    Bound = std::max(Bound, V < 0 ? 0 - static_cast<uint64_t>(V)
                                  : static_cast<uint64_t>(V));
  return embedSmallSigned(Ctx, Padded, Bound);
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
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].addPointwise(Residues[I].data(),
                                   RHS.Residues[I].data(), Residues[I].data());
}

void RingPoly::subAssign(const BfvContext &Ctx, const RingPoly &RHS) {
  assert(Ntt == RHS.Ntt && "domain mismatch");
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].subPointwise(Residues[I].data(),
                                   RHS.Residues[I].data(), Residues[I].data());
}

void RingPoly::negate(const BfvContext &Ctx) {
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].negatePointwise(Residues[I].data(), Residues[I].data());
}

RingPoly RingPoly::multiply(const BfvContext &Ctx, const RingPoly &A,
                            const RingPoly &B) {
  RingPoly FA = A, FB = B;
  if (!FA.Ntt)
    FA.toNtt(Ctx);
  if (!FB.Ntt)
    FB.toNtt(Ctx);
  FA.mulAssignNtt(Ctx, FB);
  FA.fromNtt(Ctx);
  return FA;
}

void RingPoly::mulAssignNtt(const BfvContext &Ctx, const RingPoly &RHS) {
  assert(Ntt && RHS.Ntt && "mulAssignNtt requires NTT form");
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].mulPointwise(Residues[I].data(), RHS.Residues[I].data(),
                                   Residues[I].data());
}

RingPoly RingPoly::productNtt(const BfvContext &Ctx, const RingPoly &X,
                              const RingPoly &Y) {
  assert(X.Ntt && Y.Ntt && "productNtt requires NTT form");
  RingPoly Out = zero(Ctx, /*InNttForm=*/true);
  for (size_t I = 0; I < Out.Residues.size(); ++I)
    Ctx.coeffNtt()[I].mulPointwise(X.Residues[I].data(),
                                   Y.Residues[I].data(),
                                   Out.Residues[I].data());
  return Out;
}

void RingPoly::addProductNtt(const BfvContext &Ctx, const RingPoly &X,
                             const RingPoly &Y) {
  assert(Ntt && X.Ntt && Y.Ntt && "addProductNtt requires NTT form");
  for (size_t I = 0; I < Residues.size(); ++I)
    Ctx.coeffNtt()[I].mulAddPointwise(X.Residues[I].data(),
                                      Y.Residues[I].data(),
                                      Residues[I].data());
}

void RingPoly::scaleByScalars(const BfvContext &Ctx,
                              const std::vector<uint64_t> &ScalarModPrime) {
  assert(ScalarModPrime.size() == Residues.size() && "scalar table mismatch");
  for (size_t I = 0; I < Residues.size(); ++I) {
    const NttTables &Tables = Ctx.coeffNtt()[I];
    Tables.mulScalar(Residues[I].data(),
                     ScalarModPrime[I] % Tables.modulus(), Residues[I].data());
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
