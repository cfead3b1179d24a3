//===- bfv/Encryptor.cpp - BFV encryption ----------------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Encryptor.h"

#include <algorithm>
#include <cassert>

using namespace porcupine;

Encryptor::Encryptor(const BfvContext &Ctx, PublicKey Pk, Rng &R)
    : Ctx(Ctx), Pk(std::move(Pk)), R(R) {
  this->Pk.Pk0.ensureNtt(Ctx);
  this->Pk.Pk1.ensureNtt(Ctx);
  // Delta * m goes through the pointwise kernels, which take reduced
  // inputs: every plaintext coefficient must be a residue of every prime.
  const std::vector<uint64_t> &Primes = Ctx.coeffBasis().primes();
  (void)Primes; // Only read by the assert.
  assert(Ctx.plainModulus() < *std::min_element(Primes.begin(), Primes.end()) &&
         "plaintext modulus above a coefficient prime");
}

Ciphertext Encryptor::encrypt(const Plaintext &Plain) const {
  const size_t N = Ctx.polyDegree();
  assert(Plain.Coeffs.size() <= N && "plaintext too large");
  RingPoly U = RingPoly::sampleTernary(Ctx, R);
  RingPoly E1 = RingPoly::sampleError(Ctx, R);
  RingPoly E2 = RingPoly::sampleError(Ctx, R);
  U.toNtt(Ctx);

  Ciphertext Ct;
  Ct.Components.push_back(RingPoly::productNtt(Ctx, Pk.Pk0, U));
  Ct.Components.push_back(RingPoly::productNtt(Ctx, Pk.Pk1, U));
  RingPoly &C0 = Ct[0];
  C0.fromNtt(Ctx);
  C0.addAssign(Ctx, E1);

  // Add Delta * m per prime. A plaintext may be shorter than N, so m is
  // read from a zero-padded copy.
  std::vector<uint64_t> M(N, 0), Scaled(N);
  std::copy(Plain.Coeffs.begin(), Plain.Coeffs.end(), M.begin());
  for (size_t I = 0; I < C0.primeCount(); ++I) {
    const NttTables &Tables = Ctx.coeffNtt()[I];
    std::vector<uint64_t> &Res = C0.residues(I);
    Tables.mulScalar(M.data(), Ctx.deltaModPrimes()[I], Scaled.data());
    Tables.addPointwise(Res.data(), Scaled.data(), Res.data());
  }

  RingPoly &C1 = Ct[1];
  C1.fromNtt(Ctx);
  C1.addAssign(Ctx, E2);
  return Ct;
}

Ciphertext Encryptor::encryptZero() const {
  Plaintext Zero(std::vector<uint64_t>(Ctx.polyDegree(), 0));
  return encrypt(Zero);
}
