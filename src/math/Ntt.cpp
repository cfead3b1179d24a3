//===- math/Ntt.cpp - Negacyclic number-theoretic transform ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/Ntt.h"

#include "math/ModArith.h"
#include "math/Primes.h"

#include <cassert>

#if defined(__x86_64__) && defined(__GNUC__)
#define PORCUPINE_NTT_IFMA 1
#include <immintrin.h>
#endif

using namespace porcupine;

static unsigned log2Exact(size_t N) {
  unsigned L = 0;
  while ((size_t(1) << L) < N)
    ++L;
  assert((size_t(1) << L) == N && "NTT length must be a power of two");
  return L;
}

static size_t reverseBits(size_t X, unsigned Bits) {
  size_t R = 0;
  for (unsigned I = 0; I < Bits; ++I)
    R |= ((X >> I) & 1) << (Bits - 1 - I);
  return R;
}

#ifdef PORCUPINE_NTT_IFMA
//===----------------------------------------------------------------------===//
// AVX-512 IFMA52 butterflies
//
// The same Harvey butterflies as the scalar transforms, eight per
// instruction. IFMA multiplies 52-bit lane values, so the vector path needs
// P < 2^50: lazy values stay below 4P < 2^52, and its Shoup words are
// floor(W * 2^52 / P) = floor(W * 2^64 / P) >> 12. A 52-bit Shoup product
// may land P above the 64-bit one, but both transforms end fully reduced,
// so their outputs are bit-identical to the scalar ones.
//
// Each function enables the ISA for itself alone, so the library still
// builds for the baseline target; NttTables runs this code only after its
// constructor has checked the CPU.
//===----------------------------------------------------------------------===//

#define PORCUPINE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace {

/// With all lanes set, the maskz_ intrinsic forms equal the plain ones but
/// take no undefined pass-through operand, which GCC 12 reports under
/// -Wmaybe-uninitialized.
constexpr __mmask8 AllLanes = 0xff;

/// Broadcast constants of one prime.
struct IfmaPrime {
  __m512i P, TwoP, NegP, Low52;
};

PORCUPINE_IFMA_TARGET inline IfmaPrime ifmaPrime(uint64_t P) {
  return {_mm512_set1_epi64(static_cast<long long>(P)),
          _mm512_set1_epi64(static_cast<long long>(2 * P)),
          _mm512_set1_epi64(-static_cast<long long>(P)),
          _mm512_set1_epi64((1ll << 52) - 1)};
}

/// X >= Bound ? X - Bound : X. X - Bound wraps above X exactly when
/// X < Bound, so the unsigned minimum picks the right one.
PORCUPINE_IFMA_TARGET inline __m512i reduceBelow(__m512i X, __m512i Bound) {
  return _mm512_maskz_min_epu64(AllLanes, X, _mm512_sub_epi64(X, Bound));
}

/// floor(W * 2^52 / P) from the 64-bit Shoup word floor(W * 2^64 / P).
PORCUPINE_IFMA_TARGET inline __m512i shoup52(__m512i Shoup64) {
  return _mm512_maskz_srli_epi64(AllLanes, Shoup64, 12);
}

/// mulModShoupLazy in 52-bit lanes: X * W mod P in [0, 2P) for X < 2^52,
/// given WShoup = floor(W * 2^52 / P).
PORCUPINE_IFMA_TARGET inline __m512i mulShoupLazy(__m512i X, __m512i W,
                                                  __m512i WShoup,
                                                  const IfmaPrime &C) {
  __m512i Zero = _mm512_setzero_si512();
  __m512i Quot = _mm512_madd52hi_epu64(Zero, X, WShoup);
  // X * W - Quot * P < 2P fits 52 bits, so it equals its low 52 bits:
  // X * W + Quot * (2^52 - P) mod 2^52 (IFMA reads NegP's low 52 bits).
  __m512i R = _mm512_madd52lo_epu64(Zero, X, W);
  R = _mm512_madd52lo_epu64(R, Quot, C.NegP);
  return _mm512_and_si512(R, C.Low52);
}

/// Cooley-Tukey butterfly on inputs < 4P: X, Y <- U + V, U + 2P - V with
/// U = X reduced below 2P and V = Y * W lazily; outputs stay below 4P.
PORCUPINE_IFMA_TARGET inline void forwardButterfly(__m512i &X, __m512i &Y,
                                                   __m512i W, __m512i WShoup,
                                                   const IfmaPrime &C) {
  __m512i U = reduceBelow(X, C.TwoP);
  __m512i V = mulShoupLazy(Y, W, WShoup, C);
  X = _mm512_add_epi64(U, V);
  Y = _mm512_sub_epi64(_mm512_add_epi64(U, C.TwoP), V);
}

/// Gentleman-Sande butterfly on inputs < 2P: X, Y <- X + Y reduced below
/// 2P, (X + 2P - Y) * W lazily; outputs stay below 2P.
PORCUPINE_IFMA_TARGET inline void inverseButterfly(__m512i &X, __m512i &Y,
                                                   __m512i W, __m512i WShoup,
                                                   const IfmaPrime &C) {
  __m512i Diff = _mm512_sub_epi64(_mm512_add_epi64(X, C.TwoP), Y);
  X = reduceBelow(_mm512_add_epi64(X, Y), C.TwoP);
  Y = mulShoupLazy(Diff, W, WShoup, C);
}

/// One stage whose butterflies span T >= 8 values: both halves of every
/// butterfly group are whole vectors sharing one twiddle. Group I uses
/// twiddle Tw[I] and covers X[2 * I * T, 2 * (I + 1) * T).
template <bool Forward>
PORCUPINE_IFMA_TARGET void wideStage(uint64_t *X, size_t N, size_t T,
                                     const uint64_t *Tw,
                                     const uint64_t *TwShoup,
                                     const IfmaPrime &C) {
  for (size_t I = 0; I < N / (2 * T); ++I) {
    __m512i W = _mm512_set1_epi64(static_cast<long long>(Tw[I]));
    __m512i WShoup =
        _mm512_set1_epi64(static_cast<long long>(TwShoup[I] >> 12));
    uint64_t *X0 = X + 2 * I * T, *X1 = X0 + T;
    for (size_t J = 0; J < T; J += 8) {
      __m512i A = _mm512_loadu_si512(X0 + J);
      __m512i B = _mm512_loadu_si512(X1 + J);
      if (Forward)
        forwardButterfly(A, B, W, WShoup, C);
      else
        inverseButterfly(A, B, W, WShoup, C);
      _mm512_storeu_si512(X0 + J, A);
      _mm512_storeu_si512(X1 + J, B);
    }
  }
}

/// One stage whose butterflies span T = 4, 2 or 1 values, so a vector holds
/// both halves of a butterfly. Each step loads 16 values, gathers the 8
/// butterflies' first and second inputs into two vectors, runs them, and
/// scatters the results back. Butterfly lane k pairs values
/// (k / T) * 2T + k % T and that plus T, with twiddle Tw[k / T] of the
/// step's 8 / T.
template <unsigned T, bool Forward>
PORCUPINE_IFMA_TARGET void narrowStage(uint64_t *X, size_t N,
                                       const uint64_t *Tw,
                                       const uint64_t *TwShoup,
                                       const IfmaPrime &C) {
  static_assert(T == 1 || T == 2 || T == 4, "narrow stages span 1, 2 or 4");
  constexpr unsigned TwPerStep = 8 / T;
  alignas(64) long long First[8], Second[8], TwLane[8], OutLo[8], OutHi[8];
  for (unsigned K = 0; K < 8; ++K) {
    First[K] = K / T * 2 * T + K % T;
    Second[K] = First[K] + T;
    TwLane[K] = K / T;
  }
  // Value v of the 16 came from lane (v / 2T) * T + v % 2T of the first
  // inputs, or that minus T of the second (vector index 8 and up).
  for (unsigned V = 0; V < 16; ++V) {
    unsigned Group = V / (2 * T), Offset = V % (2 * T);
    (V < 8 ? OutLo[V] : OutHi[V - 8]) =
        Offset < T ? Group * T + Offset : 8 + Group * T + Offset - T;
  }
  __m512i FirstIdx = _mm512_load_si512(First);
  __m512i SecondIdx = _mm512_load_si512(Second);
  __m512i TwIdx = _mm512_load_si512(TwLane);
  __m512i OutLoIdx = _mm512_load_si512(OutLo);
  __m512i OutHiIdx = _mm512_load_si512(OutHi);
  constexpr __mmask8 TwMask = (1u << TwPerStep) - 1;

  for (size_t S = 0; S < N / 16; ++S) {
    uint64_t *Block = X + 16 * S;
    __m512i Lo = _mm512_loadu_si512(Block);
    __m512i Hi = _mm512_loadu_si512(Block + 8);
    __m512i A = _mm512_permutex2var_epi64(Lo, FirstIdx, Hi);
    __m512i B = _mm512_permutex2var_epi64(Lo, SecondIdx, Hi);
    // The masked loads read exactly this step's twiddles.
    __m512i W = _mm512_maskz_loadu_epi64(TwMask, Tw + S * TwPerStep);
    __m512i WShoup =
        shoup52(_mm512_maskz_loadu_epi64(TwMask, TwShoup + S * TwPerStep));
    if (T != 1) {
      W = _mm512_maskz_permutexvar_epi64(AllLanes, TwIdx, W);
      WShoup = _mm512_maskz_permutexvar_epi64(AllLanes, TwIdx, WShoup);
    }
    if (Forward)
      forwardButterfly(A, B, W, WShoup, C);
    else
      inverseButterfly(A, B, W, WShoup, C);
    _mm512_storeu_si512(Block, _mm512_permutex2var_epi64(A, OutLoIdx, B));
    _mm512_storeu_si512(Block + 8, _mm512_permutex2var_epi64(A, OutHiIdx, B));
  }
}

/// NttTables::forwardTransform's butterflies and final reduction; N >= 16.
PORCUPINE_IFMA_TARGET void forwardIfma(uint64_t *X, size_t N, uint64_t P,
                                       const uint64_t *Tw,
                                       const uint64_t *TwShoup) {
  IfmaPrime C = ifmaPrime(P);
  // Stage M (M = 1, 2, 4, ...) spans T = N / 2M and uses twiddles
  // Tw[M, 2M).
  for (size_t M = 1; M <= N / 16; M <<= 1)
    wideStage<true>(X, N, N / (2 * M), Tw + M, TwShoup + M, C);
  narrowStage<4, true>(X, N, Tw + N / 8, TwShoup + N / 8, C);
  narrowStage<2, true>(X, N, Tw + N / 4, TwShoup + N / 4, C);
  narrowStage<1, true>(X, N, Tw + N / 2, TwShoup + N / 2, C);
  for (size_t J = 0; J < N; J += 8) {
    __m512i V = _mm512_loadu_si512(X + J);
    V = reduceBelow(reduceBelow(V, C.TwoP), C.P);
    _mm512_storeu_si512(X + J, V);
  }
}

/// NttTables::inverseTransform's butterflies and 1/N scaling; N >= 16.
PORCUPINE_IFMA_TARGET void inverseIfma(uint64_t *X, size_t N, uint64_t P,
                                       const uint64_t *Tw,
                                       const uint64_t *TwShoup, uint64_t NInv,
                                       uint64_t NInvShoup) {
  IfmaPrime C = ifmaPrime(P);
  // Stage T (T = 1, 2, 4, ...) uses twiddles Tw[H, 2H) with H = N / 2T.
  narrowStage<1, false>(X, N, Tw + N / 2, TwShoup + N / 2, C);
  narrowStage<2, false>(X, N, Tw + N / 4, TwShoup + N / 4, C);
  narrowStage<4, false>(X, N, Tw + N / 8, TwShoup + N / 8, C);
  for (size_t T = 8; T < N; T <<= 1)
    wideStage<false>(X, N, T, Tw + N / (2 * T), TwShoup + N / (2 * T), C);
  __m512i W = _mm512_set1_epi64(static_cast<long long>(NInv));
  __m512i WShoup = _mm512_set1_epi64(static_cast<long long>(NInvShoup >> 12));
  for (size_t J = 0; J < N; J += 8) {
    __m512i V = _mm512_loadu_si512(X + J);
    V = reduceBelow(mulShoupLazy(V, W, WShoup, C), C.P);
    _mm512_storeu_si512(X + J, V);
  }
}

bool cpuHasIfma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512ifma");
}

} // namespace
#endif // PORCUPINE_NTT_IFMA

NttTables::NttTables(size_t N, uint64_t P, bool AllowVector)
    : N(N), P(P), Red(P) {
  LogN = log2Exact(N);
  assert(P < (1ull << 62) && "NTT modulus must leave headroom for Shoup");
  assert((P - 1) % (2 * N) == 0 && "prime is not NTT-friendly for this N");
  uint64_t Psi = findMinimalPrimitiveRoot(2 * N, P);
  uint64_t PsiInv = invMod(Psi, P);

  PsiBitRev.resize(N);
  PsiBitRevShoup.resize(N);
  InvPsiBitRev.resize(N);
  InvPsiBitRevShoup.resize(N);
  uint64_t Power = 1, InvPower = 1;
  for (size_t I = 0; I < N; ++I) {
    size_t Rev = reverseBits(I, LogN);
    PsiBitRev[Rev] = Power;
    PsiBitRevShoup[Rev] = shoupPrecompute(Power, P);
    InvPsiBitRev[Rev] = InvPower;
    InvPsiBitRevShoup[Rev] = shoupPrecompute(InvPower, P);
    Power = mulMod(Power, Psi, P);
    InvPower = mulMod(InvPower, PsiInv, P);
  }
  NInv = invMod(N % P, P);
  NInvShoup = shoupPrecompute(NInv, P);
#ifdef PORCUPINE_NTT_IFMA
  Vector = AllowVector && P < (1ull << 50) && N >= 16 && cpuHasIfma();
#else
  (void)AllowVector;
#endif
}

void NttTables::forwardTransform(std::vector<uint64_t> &Values) const {
  assert(Values.size() == N && "length mismatch");
#ifdef PORCUPINE_NTT_IFMA
  if (Vector)
    return forwardIfma(Values.data(), N, P, PsiBitRev.data(),
                       PsiBitRevShoup.data());
#endif
  // Cooley-Tukey butterflies with the negacyclic twist absorbed into the
  // twiddle table (Longa-Naehrig / SEAL formulation), using Harvey's lazy
  // reduction: values drift in [0, 4P) between stages (P < 2^62 leaves the
  // headroom) and each butterfly spends one conditional subtract instead of
  // three.
  uint64_t TwoP = 2 * P;
  size_t T = N;
  for (size_t M = 1; M < N; M <<= 1) {
    T >>= 1;
    for (size_t I = 0; I < M; ++I) {
      uint64_t S = PsiBitRev[M + I];
      uint64_t SShoup = PsiBitRevShoup[M + I];
      size_t J1 = 2 * I * T;
      for (size_t J = J1; J < J1 + T; ++J) {
        // Invariant: inputs < 4P; U drops below 2P, V lands in [0, 2P), so
        // both outputs stay below 4P.
        uint64_t U = Values[J];
        if (U >= TwoP)
          U -= TwoP;
        uint64_t V = mulModShoupLazy(Values[J + T], S, SShoup, P);
        Values[J] = U + V;
        Values[J + T] = U + TwoP - V;
      }
    }
  }
  for (auto &V : Values) {
    if (V >= TwoP)
      V -= TwoP;
    if (V >= P)
      V -= P;
  }
}

void NttTables::inverseTransform(std::vector<uint64_t> &Values) const {
  assert(Values.size() == N && "length mismatch");
#ifdef PORCUPINE_NTT_IFMA
  if (Vector)
    return inverseIfma(Values.data(), N, P, InvPsiBitRev.data(),
                       InvPsiBitRevShoup.data(), NInv, NInvShoup);
#endif
  // Gentleman-Sande butterflies, lazy: values stay below 2P throughout and
  // the final 1/N scaling performs the full reduction.
  uint64_t TwoP = 2 * P;
  size_t T = 1;
  for (size_t M = N; M > 1; M >>= 1) {
    size_t J1 = 0;
    size_t H = M >> 1;
    for (size_t I = 0; I < H; ++I) {
      uint64_t S = InvPsiBitRev[H + I];
      uint64_t SShoup = InvPsiBitRevShoup[H + I];
      for (size_t J = J1; J < J1 + T; ++J) {
        // Invariant: inputs < 2P; the sum reduces below 2P, the lazy
        // product lands in [0, 2P).
        uint64_t U = Values[J];
        uint64_t V = Values[J + T];
        uint64_t Sum = U + V;
        if (Sum >= TwoP)
          Sum -= TwoP;
        Values[J] = Sum;
        Values[J + T] = mulModShoupLazy(U + TwoP - V, S, SShoup, P);
      }
      J1 += 2 * T;
    }
    T <<= 1;
  }
  for (auto &V : Values)
    V = mulModShoup(V, NInv, NInvShoup, P);
}

std::vector<uint64_t>
NttTables::multiply(const std::vector<uint64_t> &A,
                    const std::vector<uint64_t> &B) const {
  std::vector<uint64_t> FA = A, FB = B;
  forwardTransform(FA);
  forwardTransform(FB);
  for (size_t I = 0; I < N; ++I)
    FA[I] = Red.mulMod(FA[I], FB[I]);
  inverseTransform(FA);
  return FA;
}

std::vector<uint32_t> porcupine::nttGaloisPermutation(size_t N, uint64_t Elt) {
  unsigned LogN = log2Exact(N);
  uint64_t Mask = 2 * N - 1;
  assert(Elt % 2 == 1 && Elt <= Mask && "Galois element must be odd, < 2N");
  std::vector<uint32_t> Perm(N);
  for (size_t I = 0; I < N; ++I) {
    uint64_t Exponent = ((2 * reverseBits(I, LogN) + 1) * Elt) & Mask;
    Perm[I] = static_cast<uint32_t>(reverseBits((Exponent - 1) / 2, LogN));
  }
  return Perm;
}

std::vector<uint64_t>
porcupine::naiveNegacyclicMultiply(const std::vector<uint64_t> &A,
                                   const std::vector<uint64_t> &B,
                                   uint64_t P) {
  size_t N = A.size();
  assert(B.size() == N && "length mismatch");
  std::vector<uint64_t> Out(N, 0);
  for (size_t I = 0; I < N; ++I) {
    // Operands arrive as reduced residues; reduce once per row instead of
    // re-reducing both factors inside the N^2 inner loop.
    uint64_t AI = A[I] % P;
    if (AI == 0)
      continue;
    uint64_t AShoup = shoupPrecompute(AI, P);
    for (size_t J = 0; J < N; ++J) {
      uint64_t Prod = mulModShoup(B[J], AI, AShoup, P);
      size_t K = I + J;
      if (K < N)
        Out[K] = addMod(Out[K], Prod, P);
      else // x^N = -1: wrap with sign flip.
        Out[K - N] = subMod(Out[K - N], Prod, P);
    }
  }
  return Out;
}
