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
    RingPoly C = Ct[I];
    C.ensureNtt(Ctx);
    C.addProductNtt(Ctx, Acc, Sk.S);
    Acc = std::move(C);
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
  const auto &TMod = Ctx.plainModPrimes();
  std::vector<std::vector<uint64_t>> R(CS.primeCount());
  for (size_t I = 0; I < R.size(); ++I) {
    R[I].resize(N);
    Ctx.coeffNtt()[I].mulScalar(CS.residues(I).data(), TMod[I], R[I].data());
  }
  std::vector<std::vector<uint64_t>> RModT;
  Ctx.coeffToPlain().convertExact(R, RModT);

  uint64_t QInvT = Ctx.invQModPlain();
  std::vector<uint64_t> Coeffs(N);
  for (size_t J = 0; J < N; ++J)
    Coeffs[J] = mulMod(negMod(RModT[0][J], T), QInvT, T);
  return Plaintext(std::move(Coeffs));
}

/// The wide-integer oracle for the noise numerator: max_j |[t * x_j]_Q|
/// over the centered lifts x_j of c(s).
static BigInt maxNoiseNumeratorBigInt(const BfvContext &Ctx,
                                      const RingPoly &CS) {
  const BigInt &Q = Ctx.coeffModulus();
  BigInt T = BigInt::fromU64(Ctx.plainModulus());
  BigInt MaxR;
  for (const BigInt &X : CS.liftCentered(Ctx)) {
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

double Decryptor::invariantNoiseBudget(const Ciphertext &Ct) const {
  RingPoly CS = evaluateAtSecret(Ct);
  const BigInt &Q = Ctx.coeffModulus();

  // The invariant noise v satisfies (t/Q)*c(s) = m + v (mod t); its
  // numerator is the centered remainder of t*x mod Q. Decryption is correct
  // while |v| < 1/2, i.e. while 2*|r| < Q.
  BigInt MaxR = UseRns ? Ctx.coeffBasis().maxCenteredMagnitude(
                             CS.allResidues(), Ctx.plainModulus())
                       : maxNoiseNumeratorBigInt(Ctx, CS);
  if (MaxR.isZero())
    return Q.log2Magnitude() - 1.0;
  double Budget = Q.log2Magnitude() - MaxR.log2Magnitude() - 1.0;
  return Budget > 0.0 ? Budget : 0.0;
}
