//===- bfv/Encryptor.cpp - BFV encryption ----------------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Encryptor.h"

#include "math/ModArith.h"

#include <cassert>

using namespace porcupine;

Encryptor::Encryptor(const BfvContext &Ctx, PublicKey Pk, Rng &R)
    : Ctx(Ctx), Pk(std::move(Pk)), R(R) {
  this->Pk.Pk0.ensureNtt(Ctx);
  this->Pk.Pk1.ensureNtt(Ctx);
}

Ciphertext Encryptor::encrypt(const Plaintext &Plain) const {
  assert(Plain.Coeffs.size() <= Ctx.polyDegree() && "plaintext too large");
  RingPoly U = RingPoly::sampleTernary(Ctx, R);
  RingPoly E1 = RingPoly::sampleError(Ctx, R);
  RingPoly E2 = RingPoly::sampleError(Ctx, R);
  U.toNtt(Ctx);

  RingPoly C0 = Pk.Pk0;
  C0.mulAssignNtt(Ctx, U);
  C0.fromNtt(Ctx);
  C0.addAssign(Ctx, E1);

  // Add Delta * m: per prime, coefficient-wise (m_j * Delta) mod q_i.
  const auto &Primes = Ctx.coeffBasis().primes();
  const auto &DeltaMod = Ctx.deltaModPrimes();
  const auto &DeltaShoup = Ctx.deltaModPrimesShoup();
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Q = Primes[I];
    auto &Res = C0.residues(I);
    for (size_t J = 0; J < Plain.Coeffs.size(); ++J) {
      uint64_t Scaled =
          mulModShoup(Plain.Coeffs[J], DeltaMod[I], DeltaShoup[I], Q);
      Res[J] = addMod(Res[J], Scaled, Q);
    }
  }

  RingPoly C1 = Pk.Pk1;
  C1.mulAssignNtt(Ctx, U);
  C1.fromNtt(Ctx);
  C1.addAssign(Ctx, E2);

  Ciphertext Ct;
  Ct.Components.push_back(std::move(C0));
  Ct.Components.push_back(std::move(C1));
  return Ct;
}

Ciphertext Encryptor::encryptZero() const {
  Plaintext Zero(std::vector<uint64_t>(Ctx.polyDegree(), 0));
  return encrypt(Zero);
}
