//===- bfv/BfvContext.cpp - BFV parameter context --------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/BfvContext.h"

#include "math/ModArith.h"
#include "math/Primes.h"
#include "support/Error.h"

#include <cassert>

using namespace porcupine;

CrtBasis BfvContext::makeCoeffBasis(const BfvParams &Params) {
  std::vector<uint64_t> Primes;
  for (unsigned Bits : Params.CoeffPrimeBits) {
    uint64_t P = generateNttPrime(Bits, 2 * Params.PolyDegree, Primes);
    // The plaintext modulus must stay coprime with Q (it is, both prime and
    // different sizes, but be explicit).
    assert(P != Params.PlainModulus && "coefficient prime collides with t");
    Primes.push_back(P);
  }
  return CrtBasis(Primes);
}

CrtBasis BfvContext::makeAuxBasis(size_t N, const CrtBasis &Coeff) {
  // The tensor step computes sums of two negacyclic convolutions of
  // centered operands: |result| <= 2 * N * (Q/2)^2 = N/2 * Q^2. The
  // auxiliary CRT modulus must exceed twice that to recover signed values.
  unsigned NeedBits = 2 * Coeff.modulus().bitLength() + 8;
  for (size_t Pow = 1; Pow < N; Pow <<= 1)
    ++NeedBits;
  // A b-bit prime is at least 2^(b-1), so ceil(NeedBits / (b-1)) primes
  // always reach the target product (NeedBits already carries an 8-bit
  // margin of its own).
  unsigned PrimeBits = 55;
  unsigned Count = (NeedBits + PrimeBits - 2) / (PrimeBits - 1);
  // Exclude the coefficient primes so bases stay coprime (not strictly
  // required, but keeps reasoning simple).
  std::vector<uint64_t> Exclude = Coeff.primes();
  std::vector<uint64_t> Primes;
  for (unsigned I = 0; I < Count; ++I) {
    uint64_t P = generateNttPrime(PrimeBits, 2 * N, Exclude);
    Exclude.push_back(P);
    Primes.push_back(P);
  }
  return CrtBasis(Primes);
}

static std::vector<NttTables> makeNttTables(size_t N,
                                            const std::vector<uint64_t> &Ps) {
  std::vector<NttTables> Tables;
  Tables.reserve(Ps.size());
  for (uint64_t P : Ps)
    Tables.emplace_back(N, P);
  return Tables;
}

BfvContext::BfvContext(const BfvParams &Params)
    : N(Params.PolyDegree), T(Params.PlainModulus),
      CoeffBasis(makeCoeffBasis(Params)),
      CoeffNtt(makeNttTables(N, CoeffBasis.primes())),
      PlainNtt(N, Params.PlainModulus),
      AuxBasis(makeAuxBasis(N, CoeffBasis)),
      AuxNtt(makeNttTables(N, AuxBasis.primes())),
      PlainBasis({Params.PlainModulus}), CoeffToAux(CoeffBasis, AuxBasis),
      AuxToCoeff(AuxBasis, CoeffBasis), CoeffToPlain(CoeffBasis, PlainBasis),
      Width(Params.DecompWidth) {
  assert((N & (N - 1)) == 0 && N >= 8 && "poly degree must be a power of two");
  if (!isPrime(T) || (T - 1) % (2 * N) != 0)
    fatalError("plain modulus must be a prime = 1 mod 2N for batching");

  BigInt Rem;
  BigInt TBig = BigInt::fromU64(T);
  CoeffBasis.modulus().divMod(TBig, Delta, Rem);
  for (uint64_t P : CoeffBasis.primes()) {
    DeltaModPrimes.push_back(Delta.modWord(P));
    DeltaModPrimesShoup.push_back(shoupPrecompute(DeltaModPrimes.back(), P));
  }

  unsigned QBits = CoeffBasis.modulus().bitLength();
  Digits = (QBits + Width - 1) / Width;
  DigitScales.resize(Digits);
  for (unsigned D = 0; D < Digits; ++D) {
    BigInt Scale = BigInt::fromU64(1).shiftLeft(D * Width);
    for (uint64_t P : CoeffBasis.primes())
      DigitScales[D].push_back(Scale.modWord(P));
  }

  // RNS key-switch gadget: each coefficient prime's residue splits into
  // base-2^w sub-digits, keyed against 2^(d*w) * (Q/q_i) * [(Q/q_i)^-1]_{q_i}
  // mod Q. Digit values must embed directly as residues of every prime.
  for (size_t I = 0; I < CoeffBasis.count(); ++I) {
    uint64_t Qi = CoeffBasis.primes()[I];
    unsigned PrimeBits = 0;
    for (uint64_t V = Qi; V != 0; V >>= 1)
      ++PrimeBits;
    unsigned PrimeDigits = (PrimeBits + Width - 1) / Width;
    BigInt Punct = CoeffBasis.puncturedProducts()[I];
    BigInt Keyed = Punct.mulWord(CoeffBasis.invPunctured()[I]);
    for (unsigned D = 0; D < PrimeDigits; ++D) {
      RnsGadgetDigit Digit;
      Digit.SourcePrime = I;
      Digit.Shift = D * Width;
      BigInt G = Keyed.shiftLeft(Digit.Shift);
      BigInt GQuot, GRem;
      G.divMod(CoeffBasis.modulus(), GQuot, GRem);
      for (uint64_t P : CoeffBasis.primes())
        Digit.ScaleModPrimes.push_back(GRem.modWord(P));
      RnsGadget.push_back(std::move(Digit));
    }
  }

  // Scalar tables for the RNS multiply scale-and-round.
  for (uint64_t P : AuxBasis.primes()) {
    uint64_t TMod = T % P;
    TModAux.push_back(TMod);
    TModAuxShoup.push_back(shoupPrecompute(TMod, P));
    uint64_t QInv = invMod(CoeffBasis.modulus().modWord(P), P);
    InvQModAux.push_back(QInv);
    InvQModAuxShoup.push_back(shoupPrecompute(QInv, P));
  }
  for (uint64_t P : CoeffBasis.primes()) {
    uint64_t TMod = T % P;
    TModPrimes.push_back(TMod);
    TModPrimesShoup.push_back(shoupPrecompute(TMod, P));
  }
  InvQModT = invMod(CoeffBasis.modulus().modWord(T), T);
}

unsigned BfvContext::maxSecureCoeffBits(size_t PolyDegree) {
  // HomomorphicEncryption.org security standard, 128-bit classical,
  // ternary secret.
  switch (PolyDegree) {
  case 1024:
    return 27;
  case 2048:
    return 54;
  case 4096:
    return 109;
  case 8192:
    return 218;
  case 16384:
    return 438;
  case 32768:
    return 881;
  default:
    return 0;
  }
}

BfvParams BfvContext::paramsForMultDepth(unsigned Depth) {
  // Rough budget model for t = 65537: fresh ciphertexts start with
  // ~log2(Q) - 27 bits of invariant-noise budget and each ct-ct multiply
  // consumes ~30-35 bits. Pick the smallest standard (N, Q) pair that
  // leaves margin, staying within the 128-bit security table.
  BfvParams Params;
  if (Depth <= 1) {
    Params.PolyDegree = 4096;
    Params.CoeffPrimeBits = {36, 36, 37}; // 109 bits.
  } else if (Depth <= 3) {
    Params.PolyDegree = 8192;
    Params.CoeffPrimeBits = {44, 44, 44, 43}; // 175 bits.
  } else {
    Params.PolyDegree = 8192;
    Params.CoeffPrimeBits = {44, 44, 44, 43, 43}; // 218 bits.
  }
  return Params;
}

BfvContext BfvContext::forMultDepth(unsigned Depth) {
  return BfvContext(paramsForMultDepth(Depth));
}
