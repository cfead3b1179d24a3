//===- math/Crt.cpp - Chinese-remainder bases -----------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/Crt.h"

#include "math/Ifma52.h"
#include "math/ModArith.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace porcupine;

using U128 = unsigned __int128;

/// Whether the converters between bases of \p Src and \p Tgt primes can run
/// on the lanes: every prime below 2^50, alpha's K + 1 values inside one
/// 16-entry lane permute (which also keeps a lazy sum of K products below
/// 2^104), and at most 16 targets, whose lane constants stay on the stack.
static bool lanesFit(const std::vector<uint64_t> &Src,
                     const std::vector<uint64_t> &Tgt) {
#ifdef PORCUPINE_IFMA52
  auto Below50 = [](uint64_t P) { return P < (1ull << 50); };
  return Src.size() < 16 && Tgt.size() <= 16 &&
         std::all_of(Src.begin(), Src.end(), Below50) &&
         std::all_of(Tgt.begin(), Tgt.end(), Below50) &&
         ifma52::cpuSupported();
#else
  (void)Src;
  (void)Tgt;
  return false;
#endif
}

/// Sizes \p Out to \p Targets vectors of In's length. Words it already
/// holds are left for the conversion to overwrite.
static size_t sizeOutput(const std::vector<std::vector<uint64_t>> &In,
                         std::vector<std::vector<uint64_t>> &Out,
                         size_t Targets) {
  size_t N = In[0].size();
  Out.resize(Targets);
  for (auto &V : Out)
    V.resize(N);
  return N;
}

#ifdef PORCUPINE_IFMA52
//===----------------------------------------------------------------------===//
// AVX-512 IFMA52 conversions
//
// Eight coefficients per step. alpha comes from the scalar code's double
// operations in its order, through the explicitly rounded intrinsics:
// GCC contracts _mm512_add_pd(v, _mm512_mul_pd(a, b)) into an FMA under
// this target, and a fused alpha can pick the other lift near a rounding
// boundary. Everything else is exact integer arithmetic.
//===----------------------------------------------------------------------===//

namespace {

using namespace porcupine::ifma52;

constexpr int Nearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// The 16-entry table \p Table[0, 16) at the lane indices \p Alpha.
PORCUPINE_IFMA_TARGET inline __m512i lookup16(const uint64_t *Table,
                                              __m512i Alpha) {
  return _mm512_permutex2var_epi64(load(Table), Alpha, load(Table + 8));
}

/// c_i = [x_i * W_i]_{p_i} for eight coefficients, and alpha's running
/// estimate Est + c_i / p_i in the scalar code's double operations.
PORCUPINE_IFMA_TARGET inline __m512i crtCoefficient(const uint64_t *X,
                                                    uint64_t W,
                                                    uint64_t WShoup64,
                                                    double InvP,
                                                    const Lanes &C,
                                                    __m512d &Est) {
  __m512i V = reduceBelow(
      mulShoupLazy(load(X), splat(W), shoup52(splat(WShoup64)), C), C.P);
  Est = _mm512_maskz_add_round_pd(
      AllLanes, Est,
      _mm512_maskz_mul_round_pd(AllLanes, _mm512_cvtepu64_pd(V),
                                _mm512_set1_pd(InvP), Nearest),
      Nearest);
  return V;
}

/// uint64(Est + 0.5), the scalar code's rounding of alpha.
PORCUPINE_IFMA_TARGET inline __m512i roundAlpha(__m512d Est, size_t K) {
  __m512i Alpha = _mm512_cvttpd_epu64(
      _mm512_maskz_add_round_pd(AllLanes, Est, _mm512_set1_pd(0.5), Nearest));
  assert(_mm512_cmpgt_epu64_mask(Alpha, splat(K)) == 0 &&
         "alpha outside [0, k]");
  return Alpha;
}

/// RnsBaseConverter::convert on coefficients [0, N - N % 8).
PORCUPINE_IFMA_TARGET size_t convertIfma(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out, const Barrett52 *Src,
    const uint64_t *InvPunct, const uint64_t *InvPunctShoup,
    const double *InvSrcPrime, const Barrett52 *Tgt,
    const std::vector<std::vector<uint64_t>> &PunctModTgt,
    const uint64_t *AlphaQLanes, bool Wide) {
  size_t K = In.size(), T = Out.size(), N = In[0].size() & ~size_t(7);
  Lanes SrcL[16], TgtL[16];
  for (size_t I = 0; I < K; ++I)
    SrcL[I] = lanes(Src[I]);
  for (size_t J = 0; J < T; ++J)
    TgtL[J] = lanes(Tgt[J]);
  __m512i C[16];
  for (size_t Coeff = 0; Coeff < N; Coeff += 8) {
    __m512d Est = _mm512_setzero_pd();
    for (size_t I = 0; I < K; ++I)
      C[I] = crtCoefficient(In[I].data() + Coeff, InvPunct[I],
                            InvPunctShoup[I], InvSrcPrime[I], SrcL[I], Est);
    __m512i Alpha = roundAlpha(Est, K);
    for (size_t J = 0; J < T; ++J) {
      __m512i Lo = _mm512_setzero_si512(), Hi = _mm512_setzero_si512();
      const uint64_t *Punct = PunctModTgt[J].data();
      for (size_t I = 0; I < K; ++I) {
        Lo = _mm512_madd52lo_epu64(Lo, C[I], splat(Punct[I]));
        Hi = _mm512_madd52hi_epu64(Hi, C[I], splat(Punct[I]));
      }
      __m512i R = Wide ? reduceWide(Lo, Hi, TgtL[J])
                       : barrettReduce(Lo, Hi, TgtL[J]);
      store(Out[J].data() + Coeff,
            subMod(R, lookup16(AlphaQLanes + 16 * J, Alpha), TgtL[J]));
    }
  }
  return N;
}

/// RnsScaleRounder::scaleAndRound on coefficients [0, N - N % 8). The
/// rounded fraction floor((sum_j b_j * F_j * 2^128 + G_alpha * 2^128 +
/// 2^127) / 2^128) is summed exactly in four 52-bit limb columns.
PORCUPINE_IFMA_TARGET size_t scaleAndRoundIfma(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out, const Barrett52 *Src,
    const uint64_t *InvPunct, const uint64_t *InvPunctShoup,
    const double *InvSrcPrime, const uint64_t *FracLimbs,
    const uint64_t *GLanes, const Barrett52 *Tgt,
    const std::vector<std::vector<uint64_t>> &IntModTgt,
    const uint64_t *CLanes, bool Wide) {
  size_t K = In.size(), T = Out.size(), N = In[0].size() & ~size_t(7);
  Lanes SrcL[16], TgtL[16];
  for (size_t J = 0; J < K; ++J)
    SrcL[J] = lanes(Src[J]);
  for (size_t I = 0; I < T; ++I)
    TgtL[I] = lanes(Tgt[I]);
  __m512i B[16];
  for (size_t Coeff = 0; Coeff < N; Coeff += 8) {
    __m512d Est = _mm512_setzero_pd();
    // Column d sums the limb products of weight 2^(52 d).
    __m512i Col[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    for (size_t J = 0; J < K; ++J) {
      B[J] = crtCoefficient(In[J].data() + Coeff, InvPunct[J],
                            InvPunctShoup[J], InvSrcPrime[J], SrcL[J], Est);
      for (unsigned D = 0; D < 3; ++D) {
        __m512i F = splat(FracLimbs[3 * J + D]);
        Col[D] = _mm512_madd52lo_epu64(Col[D], B[J], F);
        Col[D + 1] = _mm512_madd52hi_epu64(Col[D + 1], B[J], F);
      }
    }
    __m512i Alpha = roundAlpha(Est, K);
    Col[1] = _mm512_add_epi64(Col[1], lookup16(GLanes, Alpha));
    Col[2] = _mm512_add_epi64(Col[2], lookup16(GLanes + 16, Alpha));
    // Carry column 0 into 1 and 1 into 2; then floor(total / 2^104) =
    // Col[2] + Col[3] * 2^52, and dividing by 2^24 more drops 2^128.
    Col[1] = _mm512_add_epi64(Col[1],
                              _mm512_maskz_srli_epi64(AllLanes, Col[0], 52));
    Col[2] = _mm512_add_epi64(Col[2],
                              _mm512_maskz_srli_epi64(AllLanes, Col[1], 52));
    __m512i Rounded =
        _mm512_add_epi64(_mm512_maskz_srli_epi64(AllLanes, Col[2], 24),
                         _mm512_maskz_slli_epi64(AllLanes, Col[3], 28));
    for (size_t I = 0; I < T; ++I) {
      __m512i Lo = Rounded, Hi = _mm512_setzero_si512();
      const uint64_t *Int = IntModTgt[I].data();
      for (size_t J = 0; J < K; ++J) {
        Lo = _mm512_madd52lo_epu64(Lo, B[J], splat(Int[J]));
        Hi = _mm512_madd52hi_epu64(Hi, B[J], splat(Int[J]));
      }
      __m512i R = Wide ? reduceWide(Lo, Hi, TgtL[I])
                       : barrettReduce(Lo, Hi, TgtL[I]);
      store(Out[I].data() + Coeff,
            subMod(R, lookup16(CLanes + 16 * I, Alpha), TgtL[I]));
    }
  }
  return N;
}

} // namespace
#endif // PORCUPINE_IFMA52

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

/// Word-array comparison A < B over L little-endian limbs.
template <unsigned L>
static bool limbsLess(const uint64_t *A, const uint64_t *B) {
  for (unsigned D = L; D-- > 0;)
    if (A[D] != B[D])
      return A[D] < B[D];
  return false;
}

/// Out = A - B over L little-endian limbs; requires A >= B. Out may alias
/// A.
template <unsigned L>
static void limbsSub(const uint64_t *A, const uint64_t *B, uint64_t *Out) {
  uint64_t Borrow = 0;
  for (unsigned D = 0; D < L; ++D) {
    uint64_t Diff = A[D] - B[D] - Borrow;
    Borrow = (A[D] < B[D]) || (A[D] - B[D] < Borrow) ? 1 : 0;
    Out[D] = Diff;
  }
  assert(Borrow == 0 && "limbsSub requires A >= B");
}

RnsReadOut::RnsReadOut(const CrtBasis &Basis, uint64_t T)
    : Primes(Basis.primes()), TRed(T) {
  size_t K = Primes.size();
  const BigInt &Q = Basis.modulus();
  // The message sum: k products c_i * weight_i below q_i * t, plus alpha.
  auto Bits = [](uint64_t V) { return 64 - __builtin_clzll(V); };
  unsigned MaxPrimeBits = 0;
  for (uint64_t P : Primes)
    MaxPrimeBits = std::max<unsigned>(MaxPrimeBits, Bits(P));
  assert(MaxPrimeBits + Bits(T) + Bits(K + 1) <= 128 &&
         "basis too wide for the 128-bit message sum");

  uint64_t InvQModT = invMod(Q.modWord(T), T);
  for (size_t I = 0; I < K; ++I) {
    uint64_t P = Primes[I];
    W.push_back(mulMod(Basis.invPunctured()[I], T % P, P));
    WShoup.push_back(shoupPrecompute(W.back(), P));
    uint64_t PunctModT = Basis.puncturedProducts()[I].modWord(T);
    MessageWeight.push_back(negMod(mulMod(PunctModT, InvQModT, T), T));
  }

  // A sum of k terms below Q needs bitLength(Q) + bitLength(k) bits.
  Limbs = (Q.bitLength() + Bits(K) + 63) / 64;
  QWords = (Q.bitLength() + 63) / 64;
  assert(Limbs <= MaxLimbs && "basis too wide for the read-out's limbs");
  for (const BigInt &Punct : Basis.puncturedProducts())
    for (unsigned D = 0; D < Limbs; ++D)
      PunctLimbs.push_back(Punct.word(D));
  for (unsigned D = 0; D < Limbs; ++D)
    QLimbs.push_back(Q.word(D));
}

template <unsigned L>
void RnsReadOut::runLimbs(const std::vector<std::vector<uint64_t>> &Residues,
                          uint64_t *Message, uint64_t *Max) const {
  size_t K = Primes.size();
  size_t N = Residues[0].size();
  std::vector<const uint64_t *> X(K);
  for (size_t I = 0; I < K; ++I)
    X[I] = Residues[I].data();
  const uint64_t *QL = QLimbs.data();
  for (size_t J = 0; J < N; ++J) {
    uint64_t Sum[L] = {};
    U128 MessageSum = 0;
    for (size_t I = 0; I < K; ++I) {
      uint64_t C = mulModShoup(X[I][J], W[I], WShoup[I], Primes[I]);
      MessageSum += static_cast<U128>(C) * MessageWeight[I];
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
    uint64_t Alpha = 0;
    for (; !limbsLess<L>(Sum, QL); ++Alpha)
      limbsSub<L>(Sum, QL, Sum);
    uint64_t Neg[L];
    limbsSub<L>(QL, Sum, Neg);
    const uint64_t *Abs = Sum;
    if (limbsLess<L>(Neg, Sum)) {
      Abs = Neg;
      ++Alpha;
    }
    if (limbsLess<L>(Max, Abs))
      std::copy(Abs, Abs + L, Max);
    if (Message)
      Message[J] = TRed.reduce(MessageSum + Alpha);
  }
}

BigInt RnsReadOut::run(const std::vector<std::vector<uint64_t>> &Residues,
                       uint64_t *Message) const {
  assert(Residues.size() == Primes.size() && "residue count mismatch");
  using Pass = void (RnsReadOut::*)(
      const std::vector<std::vector<uint64_t>> &, uint64_t *, uint64_t *) const;
  static constexpr Pass Passes[MaxLimbs] = {
      &RnsReadOut::runLimbs<1>, &RnsReadOut::runLimbs<2>,
      &RnsReadOut::runLimbs<3>, &RnsReadOut::runLimbs<4>,
      &RnsReadOut::runLimbs<5>, &RnsReadOut::runLimbs<6>};
  std::array<uint64_t, MaxLimbs> Max{};
  (this->*Passes[Limbs - 1])(Residues, Message, Max.data());
  // Max < Q/2 fits Q's own limbs.
  return BigInt::fromWords(Max.data(), QWords);
}

RnsBaseConverter::RnsBaseConverter(const CrtBasis &From, const CrtBasis &To,
                                   bool AllowVector)
    : SrcPrimes(From.primes()), TgtPrimes(To.primes()),
      Vector(AllowVector && lanesFit(SrcPrimes, TgtPrimes)),
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

  if (!Vector)
    return;
  uint64_t MaxSrc = *std::max_element(SrcPrimes.begin(), SrcPrimes.end());
  for (uint64_t P : SrcPrimes)
    SrcLane.emplace_back(P);
  AlphaQLanes.assign(16 * TgtPrimes.size(), 0);
  for (size_t J = 0; J < TgtPrimes.size(); ++J) {
    TgtLane.emplace_back(TgtPrimes[J]);
    WideSums |= TgtLane.back().lazyTerms(MaxSrc - 1, TgtPrimes[J] - 1, 0) < K;
    for (size_t A = 0; A <= K; ++A)
      AlphaQLanes[16 * J + A] = AlphaQModTgt[A][J];
  }
}

void RnsBaseConverter::convertScalar(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out, size_t From) const {
  size_t K = SrcPrimes.size();
  size_t N = In[0].size();
  // Scratch for the per-coefficient CRT coefficients c_i.
  std::vector<uint64_t> C(K);
  for (size_t Coeff = From; Coeff < N; ++Coeff) {
    // c_i = [x_i * (Q/q_i)^-1]_{q_i}; x/Q = frac(sum_i c_i / q_i).
    double V = 0.0;
    for (size_t I = 0; I < K; ++I) {
      C[I] = mulModShoup(In[I][Coeff], InvPunct[I], InvPunctShoup[I],
                         SrcPrimes[I]);
      V += static_cast<double>(C[I]) * InvSrcPrime[I];
    }
    uint64_t Alpha = static_cast<uint64_t>(V + 0.5);
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
  assert(In.size() == SrcPrimes.size() && "source residue count mismatch");
  sizeOutput(In, Out, TgtPrimes.size());
  size_t Done = 0;
#ifdef PORCUPINE_IFMA52
  if (Vector)
    Done = convertIfma(In, Out, SrcLane.data(), InvPunct.data(),
                       InvPunctShoup.data(), InvSrcPrime.data(),
                       TgtLane.data(), PunctModTgt, AlphaQLanes.data(),
                       WideSums);
#endif
  convertScalar(In, Out, Done);
}

RnsScaleRounder::RnsScaleRounder(const CrtBasis &From, const CrtBasis &To,
                                 uint64_t T, bool AllowVector)
    : SrcPrimes(From.primes()), TgtPrimes(To.primes()),
      Vector(AllowVector && lanesFit(SrcPrimes, TgtPrimes)),
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

  if (!Vector)
    return;
  const uint64_t Low52 = (1ull << 52) - 1;
  uint64_t MaxSrc = *std::max_element(SrcPrimes.begin(), SrcPrimes.end());
  for (size_t J = 0; J < K; ++J) {
    SrcLane.emplace_back(SrcPrimes[J]);
    FracLimbs.push_back(FracLo[J] & Low52);
    FracLimbs.push_back(((FracLo[J] >> 52) | (FracHi[J] << 12)) & Low52);
    FracLimbs.push_back(FracHi[J] >> 40);
  }
  // GFixed * 2^64 + 2^127 = GHi * 2^128 + W * 2^64 with W = GLo + 2^63: a
  // multiple of 2^64, so limb 0 is zero.
  GLanes.assign(32, 0);
  for (size_t A = 0; A <= K; ++A) {
    U128 W = static_cast<U128>(static_cast<uint64_t>(GFixed[A])) +
             (U128(1) << 63);
    GLanes[A] = static_cast<uint64_t>(W & ((U128(1) << 40) - 1)) << 12;
    GLanes[16 + A] = static_cast<uint64_t>(GFixed[A] >> 64 << 24) +
                     static_cast<uint64_t>(W >> 40);
  }
  // The rounded fraction, each sum's starting value, stays below
  // sum_j p_j * F_j + G + 1/2 < K * max p_j + 2.
  CLanes.assign(16 * TgtPrimes.size(), 0);
  for (size_t I = 0; I < TgtPrimes.size(); ++I) {
    TgtLane.emplace_back(TgtPrimes[I]);
    WideSums |= TgtLane.back().lazyTerms(MaxSrc - 1, TgtPrimes[I] - 1,
                                         K * MaxSrc + 2) < K;
    for (size_t A = 0; A <= K; ++A)
      CLanes[16 * I + A] = CModTgt[A][I];
  }
}

void RnsScaleRounder::scaleAndRound(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out) const {
  assert(In.size() == SrcPrimes.size() && "source residue count mismatch");
  sizeOutput(In, Out, TgtPrimes.size());
  size_t Done = 0;
#ifdef PORCUPINE_IFMA52
  if (Vector)
    Done = scaleAndRoundIfma(In, Out, SrcLane.data(), InvPunct.data(),
                             InvPunctShoup.data(), InvSrcPrime.data(),
                             FracLimbs.data(), GLanes.data(), TgtLane.data(),
                             IntModTgt, CLanes.data(), WideSums);
#endif
  scaleAndRoundScalar(In, Out, Done);
}

void RnsScaleRounder::scaleAndRoundScalar(
    const std::vector<std::vector<uint64_t>> &In,
    std::vector<std::vector<uint64_t>> &Out, size_t From) const {
  size_t K = SrcPrimes.size();
  size_t N = In[0].size();
  std::vector<uint64_t> B(K);
  for (size_t Coeff = From; Coeff < N; ++Coeff) {
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
