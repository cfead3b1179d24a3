//===- math/Crt.cpp - Chinese-remainder bases -----------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/Crt.h"

#include "math/ModArith.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace porcupine;

using U128 = unsigned __int128;

CrtBasis::CrtBasis(std::vector<uint64_t> PrimesIn) : Primes(std::move(PrimesIn)) {
  assert(!Primes.empty() && "CRT basis needs at least one prime");
  Q = BigInt::fromU64(1);
  for (uint64_t P : Primes)
    Q = Q.mulWord(P);
  HalfQ = Q.shiftRight(1);

  PuncturedProducts.reserve(Primes.size());
  InvPunctured.reserve(Primes.size());
  for (uint64_t P : Primes) {
    BigInt Punctured = BigInt::fromU64(1);
    for (uint64_t Other : Primes)
      if (Other != P)
        Punctured = Punctured.mulWord(Other);
    PuncturedProducts.push_back(Punctured);
    InvPunctured.push_back(invMod(Punctured.modWord(P), P));
  }

  // A sum of k terms below Q needs bitLength(Q) + bitLength(k) bits.
  unsigned SumBits = Q.bitLength();
  for (size_t K = Primes.size(); K != 0; K >>= 1)
    ++SumBits;
  Limbs = (SumBits + 63) / 64;
  assert(Limbs <= BigInt::MaxWords + 1 && "basis too wide for word sums");
  for (const BigInt &Punct : PuncturedProducts)
    for (unsigned D = 0; D < Limbs; ++D)
      PunctLimbs.push_back(Punct.word(D));
  for (unsigned D = 0; D < Limbs; ++D)
    QLimbs.push_back(Q.word(D));
}

std::vector<uint64_t> CrtBasis::decompose(const BigInt &Value) const {
  std::vector<uint64_t> Residues(Primes.size());
  for (size_t I = 0; I < Primes.size(); ++I)
    Residues[I] = Value.modWord(Primes[I]);
  return Residues;
}

BigInt CrtBasis::reconstruct(const std::vector<uint64_t> &Residues) const {
  assert(Residues.size() == Primes.size() && "residue count mismatch");
  // X = sum_i ((x_i * inv_i) mod q_i) * (Q / q_i), reduced mod Q. The sum of
  // k terms each below Q is below k*Q, so at most k-1 subtractions.
  BigInt Sum;
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Coef = mulMod(Residues[I] % Primes[I], InvPunctured[I], Primes[I]);
    Sum += PuncturedProducts[I].mulWord(Coef);
  }
  while (Sum >= Q)
    Sum -= Q;
  return Sum;
}

BigInt CrtBasis::reconstructCentered(
    const std::vector<uint64_t> &Residues) const {
  BigInt X = reconstruct(Residues);
  if (X > HalfQ)
    X -= Q;
  return X;
}

/// Word-array comparison A < B over \p L little-endian limbs.
static bool limbsLess(const uint64_t *A, const uint64_t *B, unsigned L) {
  for (unsigned D = L; D-- > 0;)
    if (A[D] != B[D])
      return A[D] < B[D];
  return false;
}

/// Out = A - B over \p L little-endian limbs; requires A >= B. Out may
/// alias A.
static void limbsSub(const uint64_t *A, const uint64_t *B, uint64_t *Out,
                     unsigned L) {
  uint64_t Borrow = 0;
  for (unsigned D = 0; D < L; ++D) {
    uint64_t Diff = A[D] - B[D] - Borrow;
    Borrow = (A[D] < B[D]) || (A[D] - B[D] < Borrow) ? 1 : 0;
    Out[D] = Diff;
  }
  assert(Borrow == 0 && "limbsSub requires A >= B");
}

BigInt CrtBasis::maxCenteredMagnitude(
    const std::vector<std::vector<uint64_t>> &Residues, uint64_t Scale) const {
  size_t K = Primes.size();
  assert(Residues.size() == K && "residue count mismatch");
  std::vector<uint64_t> W(K), WShoup(K);
  for (size_t I = 0; I < K; ++I) {
    W[I] = mulMod(InvPunctured[I], Scale % Primes[I], Primes[I]);
    WShoup[I] = shoupPrecompute(W[I], Primes[I]);
  }

  const unsigned L = Limbs;
  const uint64_t *QL = QLimbs.data();
  std::array<uint64_t, BigInt::MaxWords + 1> Sum{}, Neg{}, Max{};
  for (size_t J = 0; J < Residues[0].size(); ++J) {
    std::fill(Sum.begin(), Sum.begin() + L, 0);
    for (size_t I = 0; I < K; ++I) {
      uint64_t C = mulModShoup(Residues[I][J], W[I], WShoup[I], Primes[I]);
      const uint64_t *Punct = &PunctLimbs[I * L];
      uint64_t Carry = 0;
      for (unsigned D = 0; D < L; ++D) {
        // (2^64-1)^2 + 2 * (2^64-1) = 2^128 - 1: never overflows.
        U128 T = static_cast<U128>(C) * Punct[D] + Sum[D] + Carry;
        Sum[D] = static_cast<uint64_t>(T);
        Carry = static_cast<uint64_t>(T >> 64);
      }
      assert(Carry == 0 && "word sum overflow");
    }
    // S < k*Q, so at most k-1 subtractions.
    while (!limbsLess(Sum.data(), QL, L))
      limbsSub(Sum.data(), QL, Sum.data(), L);
    limbsSub(QL, Sum.data(), Neg.data(), L);
    const uint64_t *Abs = limbsLess(Neg.data(), Sum.data(), L) ? Neg.data()
                                                                : Sum.data();
    if (limbsLess(Max.data(), Abs, L))
      std::copy(Abs, Abs + L, Max.begin());
  }
  // Max < Q/2 fits Q's own limbs, which never exceed BigInt's capacity.
  return BigInt::fromWords(Max.data(), (Q.bitLength() + 63) / 64);
}

RnsBaseConverter::RnsBaseConverter(const CrtBasis &From, const CrtBasis &To)
    : SrcPrimes(From.primes()), TgtPrimes(To.primes()),
      InvPunct(From.invPunctured()) {
  size_t K = SrcPrimes.size();
  InvPunctShoup.resize(K);
  InvSrcPrime.resize(K);
  for (size_t I = 0; I < K; ++I) {
    InvPunctShoup[I] = shoupPrecompute(InvPunct[I], SrcPrimes[I]);
    InvSrcPrime[I] = 1.0 / static_cast<double>(SrcPrimes[I]);
  }

  PunctModTgt.resize(TgtPrimes.size());
  TgtRed.reserve(TgtPrimes.size());
  for (size_t J = 0; J < TgtPrimes.size(); ++J) {
    uint64_t T = TgtPrimes[J];
    PunctModTgt[J].resize(K);
    for (size_t I = 0; I < K; ++I)
      PunctModTgt[J][I] = From.puncturedProducts()[I].modWord(T);
    TgtRed.emplace_back(T);
  }

  AlphaQModTgt.resize(K + 1);
  for (size_t A = 0; A <= K; ++A) {
    AlphaQModTgt[A].resize(TgtPrimes.size());
    for (size_t J = 0; J < TgtPrimes.size(); ++J) {
      uint64_t QModT = From.modulus().modWord(TgtPrimes[J]);
      AlphaQModTgt[A][J] = mulMod(A % TgtPrimes[J], QModT, TgtPrimes[J]);
    }
  }
}

template <bool Exact>
void RnsBaseConverter::convertImpl(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out) const {
  size_t K = SrcPrimes.size();
  assert(In.size() == K && "source residue count mismatch");
  size_t N = In[0].size();
  Out.resize(TgtPrimes.size());
  for (auto &V : Out)
    V.assign(N, 0);

  // Scratch for the per-coefficient CRT coefficients c_i.
  std::vector<uint64_t> C(K);
  for (size_t Coeff = 0; Coeff < N; ++Coeff) {
    // c_i = [x_i * (Q/q_i)^-1]_{q_i}; x/Q = frac(sum_i c_i / q_i).
    uint64_t Alpha;
    if (Exact) {
      // 64-bit fixed point: floor(c_i * 2^64 / q_i) underestimates each
      // term by < 1 ulp, so the rounded sum is exact unless the true value
      // sits within k*2^-64 of a half-integer boundary.
      unsigned __int128 FracSum = 0;
      for (size_t I = 0; I < K; ++I) {
        C[I] = mulModShoup(In[I][Coeff], InvPunct[I], InvPunctShoup[I],
                           SrcPrimes[I]);
        FracSum += (static_cast<unsigned __int128>(C[I]) << 64) / SrcPrimes[I];
      }
      Alpha = static_cast<uint64_t>((FracSum + (1ull << 63)) >> 64);
    } else {
      double V = 0.0;
      for (size_t I = 0; I < K; ++I) {
        C[I] = mulModShoup(In[I][Coeff], InvPunct[I], InvPunctShoup[I],
                           SrcPrimes[I]);
        V += static_cast<double>(C[I]) * InvSrcPrime[I];
      }
      Alpha = static_cast<uint64_t>(V + 0.5);
    }
    assert(Alpha <= K && "alpha outside [0, k]");

    for (size_t J = 0; J < TgtPrimes.size(); ++J) {
      uint64_t T = TgtPrimes[J];
      const auto &Punct = PunctModTgt[J];
      // c_i < 2^62 and punct < 2^62, so k <= 16 products fit a 128-bit
      // accumulator with room to spare; one Barrett reduce replaces k
      // modular multiplies.
      unsigned __int128 Acc = 0;
      for (size_t I = 0; I < K; ++I)
        Acc += static_cast<unsigned __int128>(C[I]) * Punct[I];
      Out[J][Coeff] = subMod(TgtRed[J].reduce(Acc), AlphaQModTgt[Alpha][J], T);
    }
  }
}

void RnsBaseConverter::convert(const std::vector<std::vector<uint64_t>> &In,
                               std::vector<std::vector<uint64_t>> &Out) const {
  convertImpl<false>(In, Out);
}

void RnsBaseConverter::convertExact(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out) const {
  convertImpl<true>(In, Out);
}

RnsScaleRounder::RnsScaleRounder(const CrtBasis &From, const CrtBasis &To,
                                 uint64_t T)
    : SrcPrimes(From.primes()), TgtPrimes(To.primes()),
      InvPunct(From.invPunctured()) {
  size_t K = SrcPrimes.size();
  const BigInt &Q = To.modulus();
  // The fraction sums sum_j b_j * FracHi[j] stay below 2^127.
  assert(K * *std::max_element(SrcPrimes.begin(), SrcPrimes.end()) <
             (1ull << 63) &&
         "source basis too wide for the 128-bit fraction sum");

  InvPunctShoup.resize(K);
  InvSrcPrime.resize(K);
  FracHi.resize(K);
  FracLo.resize(K);
  IntModTgt.assign(TgtPrimes.size(), std::vector<uint64_t>(K));
  for (size_t J = 0; J < K; ++J) {
    InvPunctShoup[J] = shoupPrecompute(InvPunct[J], SrcPrimes[J]);
    InvSrcPrime[J] = 1.0 / static_cast<double>(SrcPrimes[J]);
    // t * (B/p_j) = I_j * Q + R_j, so F_j = R_j / Q.
    BigInt Int, Rem;
    From.puncturedProducts()[J].mulWord(T).divMod(Q, Int, Rem);
    for (size_t I = 0; I < TgtPrimes.size(); ++I)
      IntModTgt[I][J] = Int.modWord(TgtPrimes[I]);
    BigInt Frac, Unused;
    Rem.shiftLeft(128).divMod(Q, Frac, Unused);
    FracHi[J] = Frac.word(1);
    FracLo[J] = Frac.word(0);
  }
  for (uint64_t P : TgtPrimes)
    TgtRed.emplace_back(P);

  // alpha * t * B = D * Q + S: C_alpha = D + 1 and G_alpha = (Q - S) / Q,
  // so G_alpha = 1 exactly when S = 0 (alpha = 0 among others).
  CModTgt.resize(K + 1);
  GFixed.resize(K + 1);
  BigInt TB = From.modulus().mulWord(T);
  for (size_t A = 0; A <= K; ++A) {
    BigInt D, S;
    TB.mulWord(A).divMod(Q, D, S);
    BigInt C = D + BigInt::fromU64(1);
    for (uint64_t P : TgtPrimes)
      CModTgt[A].push_back(C.modWord(P));
    BigInt G, Unused;
    (Q - S).shiftLeft(64).divMod(Q, G, Unused);
    GFixed[A] = (static_cast<U128>(G.word(1)) << 64) | G.word(0);
  }
}

void RnsScaleRounder::scaleAndRound(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out) const {
  size_t K = SrcPrimes.size();
  assert(In.size() == K && "source residue count mismatch");
  size_t N = In[0].size();
  Out.resize(TgtPrimes.size());
  for (auto &V : Out)
    V.resize(N);

  std::vector<uint64_t> B(K);
  for (size_t Coeff = 0; Coeff < N; ++Coeff) {
    double AlphaEst = 0.0;
    U128 SumHi = 0, SumLo = 0;
    for (size_t J = 0; J < K; ++J) {
      B[J] = mulModShoup(In[J][Coeff], InvPunct[J], InvPunctShoup[J],
                         SrcPrimes[J]);
      AlphaEst += static_cast<double>(B[J]) * InvSrcPrime[J];
      SumHi += static_cast<U128>(B[J]) * FracHi[J];
      SumLo += static_cast<U128>(B[J]) * FracLo[J];
    }
    uint64_t Alpha = static_cast<uint64_t>(AlphaEst + 0.5);
    assert(Alpha <= K && "alpha outside [0, k]");
    // sum_j b_j * F_j + G_alpha in 64.64 fixed point, rounded to nearest.
    U128 Frac = SumHi + (SumLo >> 64) + GFixed[Alpha];
    uint64_t Rounded = static_cast<uint64_t>((Frac + (U128(1) << 63)) >> 64);

    for (size_t I = 0; I < TgtPrimes.size(); ++I) {
      // I_j mod q_i < 2^62 and the constructor's k * max p_j < 2^63 keep
      // the sum below 2^125: one 128-bit accumulator, one reduction.
      const auto &Int = IntModTgt[I];
      U128 Acc = Rounded;
      for (size_t J = 0; J < K; ++J)
        Acc += static_cast<U128>(B[J]) * Int[J];
      Out[I][Coeff] =
          subMod(TgtRed[I].reduce(Acc), CModTgt[Alpha][I], TgtPrimes[I]);
    }
  }
}
