//===- bfv/Decryptor.cpp - BFV decryption and noise metering ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Decryptor.h"

#include "math/ModArith.h"

#include <cassert>

using namespace porcupine;

Decryptor::Decryptor(const BfvContext &Ctx, SecretKey Sk, bool UseRnsPath)
    : Ctx(Ctx), Sk(std::move(Sk)), UseRns(UseRnsPath) {
  this->Sk.S.ensureNtt(Ctx);
}

RingPoly Decryptor::evaluateAtSecret(const Ciphertext &Ct) const {
  assert(Ct.size() >= 2 && "malformed ciphertext");
  // Horner evaluation: (((c_k * s) + c_{k-1}) * s + ...) + c_0.
  RingPoly Acc = Ct[Ct.size() - 1];
  Acc.ensureNtt(Ctx);
  for (size_t I = Ct.size() - 1; I-- > 0;) {
    Acc.mulAssignNtt(Ctx, Sk.S);
    RingPoly C = Ct[I];
    C.ensureNtt(Ctx);
    Acc.addAssign(Ctx, C);
  }
  Acc.fromNtt(Ctx);
  return Acc;
}

Plaintext Decryptor::decrypt(const Ciphertext &Ct) const {
  RingPoly CS = evaluateAtSecret(Ct);
  uint64_t T = Ctx.plainModulus();
  size_t N = Ctx.polyDegree();

  if (!UseRns) {
    std::vector<BigInt> Lifted = CS.liftCentered(Ctx);
    const BigInt &Q = Ctx.coeffModulus();
    BigInt TBig = BigInt::fromU64(T);
    std::vector<uint64_t> Coeffs(N);
    for (size_t J = 0; J < Lifted.size(); ++J) {
      // m_j = round(t * x_j / Q) mod t; the centered lift keeps the
      // rounding error symmetric.
      BigInt Scaled = (Lifted[J] * TBig).divRoundNearest(Q);
      Coeffs[J] = Scaled.modWord(T);
    }
    return Plaintext(std::move(Coeffs));
  }

  // RNS path. With x the centered lift of c(s), write t*x = Q*m' + r where
  // r is the centered remainder of t*x mod Q; then round(t*x/Q) = m' and,
  // reducing the identity mod t, m = [-r * Q^-1]_t. r's residues are just
  // t*x_i mod q_i, and r itself (a value in (-Q/2, Q/2)) transfers to the
  // basis {t} by an exact base conversion -- no wide integers anywhere.
  const auto &Primes = Ctx.coeffBasis().primes();
  const auto &TMod = Ctx.plainModPrimes();
  const auto &TShoup = Ctx.plainModPrimesShoup();
  std::vector<std::vector<uint64_t>> R(Primes.size());
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Q = Primes[I];
    const auto &X = CS.residues(I);
    R[I].resize(N);
    for (size_t J = 0; J < N; ++J)
      R[I][J] = mulModShoup(X[J], TMod[I], TShoup[I], Q);
  }
  std::vector<std::vector<uint64_t>> RModT;
  Ctx.coeffToPlain().convertExact(R, RModT);

  uint64_t QInvT = Ctx.invQModPlain();
  std::vector<uint64_t> Coeffs(N);
  for (size_t J = 0; J < N; ++J)
    Coeffs[J] = mulMod(negMod(RModT[0][J], T), QInvT, T);
  return Plaintext(std::move(Coeffs));
}

double Decryptor::invariantNoiseBudget(const Ciphertext &Ct) const {
  RingPoly CS = evaluateAtSecret(Ct);
  std::vector<BigInt> Lifted = CS.liftCentered(Ctx);
  const BigInt &Q = Ctx.coeffModulus();
  uint64_t T = Ctx.plainModulus();

  // The invariant noise v satisfies (t/Q)*c(s) = m + v (mod t); its
  // numerator is the centered remainder of t*x mod Q. Decryption is correct
  // while |v| < 1/2, i.e. while 2*|r| < Q.
  BigInt MaxR;
  for (const BigInt &X : Lifted) {
    BigInt Prod = X * BigInt::fromU64(T);
    BigInt Quot, Rem;
    Prod.divMod(Q, Quot, Rem);
    // Center the remainder into (-Q/2, Q/2].
    if (!Rem.isNegative()) {
      if (Rem.shiftLeft(1) > Q)
        Rem -= Q;
    } else {
      if ((-Rem).shiftLeft(1) > Q)
        Rem += Q;
    }
    BigInt AbsRem = Rem.isNegative() ? -Rem : Rem;
    if (AbsRem > MaxR)
      MaxR = AbsRem;
  }
  if (MaxR.isZero())
    return Q.log2Magnitude() - 1.0;
  double Budget = Q.log2Magnitude() - MaxR.log2Magnitude() - 1.0;
  return Budget > 0.0 ? Budget : 0.0;
}
