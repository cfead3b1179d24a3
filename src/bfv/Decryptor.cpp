//===- bfv/Decryptor.cpp - BFV decryption and noise metering ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Decryptor.h"

#include <cassert>

using namespace porcupine;

Decryptor::Decryptor(const BfvContext &Ctx, SecretKey Sk, bool UseRnsPath)
    : Ctx(Ctx), Sk(std::move(Sk)), UseRns(UseRnsPath) {
  this->Sk.S.ensureNtt(Ctx);
}

RingPoly Decryptor::evaluateAtSecret(const Ciphertext &Ct) const {
  assert(Ct.size() >= 2 && "malformed ciphertext");
  // Horner evaluation: (((c_k * s) + c_{k-1}) * s + ...) * s + c_0.
  RingPoly Acc = Ct[Ct.size() - 1];
  Acc.ensureNtt(Ctx);
  for (size_t I = Ct.size() - 1; I-- > 1;) {
    RingPoly C = Ct[I];
    C.ensureNtt(Ctx);
    C.addProductNtt(Ctx, Acc, Sk.S);
    Acc = std::move(C);
  }
  Acc.mulAssignNtt(Ctx, Sk.S);
  // A coefficient-form c0 joins after the inverse transform, which saves
  // transforming it.
  const RingPoly &C0 = Ct[0];
  if (C0.isNtt())
    Acc.addAssign(Ctx, C0);
  Acc.fromNtt(Ctx);
  if (!C0.isNtt())
    Acc.addAssign(Ctx, C0);
  return Acc;
}

/// The wide-integer oracle for decryption: m_j = round(t * x_j / Q) mod t
/// over the centered lifts x_j of c(s).
static Plaintext decryptBigInt(const BfvContext &Ctx,
                               const std::vector<BigInt> &Lifted) {
  uint64_t T = Ctx.plainModulus();
  const BigInt &Q = Ctx.coeffModulus();
  BigInt TBig = BigInt::fromU64(T);
  std::vector<uint64_t> Coeffs(Lifted.size());
  for (size_t J = 0; J < Lifted.size(); ++J) {
    // The centered lift keeps the rounding error symmetric.
    BigInt Scaled = (Lifted[J] * TBig).divRoundNearest(Q);
    Coeffs[J] = Scaled.modWord(T);
  }
  return Plaintext(std::move(Coeffs));
}

/// The wide-integer oracle for the noise numerator: max_j |[t * x_j]_Q|
/// over the centered lifts x_j of c(s).
static BigInt maxNoiseNumeratorBigInt(const BfvContext &Ctx,
                                      const std::vector<BigInt> &Lifted) {
  const BigInt &Q = Ctx.coeffModulus();
  BigInt T = BigInt::fromU64(Ctx.plainModulus());
  BigInt MaxR;
  for (const BigInt &X : Lifted) {
    BigInt Quot, Rem;
    (X * T).divMod(Q, Quot, Rem);
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
  return MaxR;
}

double Decryptor::readOut(const Ciphertext &Ct, Plaintext *Plain) const {
  RingPoly CS = evaluateAtSecret(Ct);
  BigInt MaxR;
  if (UseRns) {
    if (Plain)
      Plain->Coeffs.resize(Ctx.polyDegree());
    MaxR = Ctx.readOut().run(CS.allResidues(),
                             Plain ? Plain->Coeffs.data() : nullptr);
  } else {
    std::vector<BigInt> Lifted = CS.liftCentered(Ctx);
    if (Plain)
      *Plain = decryptBigInt(Ctx, Lifted);
    MaxR = maxNoiseNumeratorBigInt(Ctx, Lifted);
  }

  // The invariant noise v satisfies (t/Q)*c(s) = m + v (mod t); its
  // numerator is the centered remainder of t*x mod Q. Decryption is correct
  // while |v| < 1/2, i.e. while 2*|r| < Q.
  const BigInt &Q = Ctx.coeffModulus();
  if (MaxR.isZero())
    return Q.log2Magnitude() - 1.0;
  double Budget = Q.log2Magnitude() - MaxR.log2Magnitude() - 1.0;
  return Budget > 0.0 ? Budget : 0.0;
}

Plaintext Decryptor::decrypt(const Ciphertext &Ct) const {
  Plaintext Plain;
  readOut(Ct, &Plain);
  return Plain;
}

double Decryptor::invariantNoiseBudget(const Ciphertext &Ct) const {
  return readOut(Ct, nullptr);
}

Decryption Decryptor::decryptWithBudget(const Ciphertext &Ct) const {
  Decryption Out;
  Out.NoiseBudget = readOut(Ct, &Out.Plain);
  return Out;
}
