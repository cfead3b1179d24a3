//===- math/Ntt.cpp - Negacyclic number-theoretic transform ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/Ntt.h"

#include "math/Ifma52.h"
#include "math/ModArith.h"
#include "math/Primes.h"

#include <algorithm>
#include <cassert>

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

#ifdef PORCUPINE_IFMA52
//===----------------------------------------------------------------------===//
// AVX-512 IFMA52 butterflies and kernels
//
// The same Harvey butterflies as the scalar transforms, eight per
// instruction. IFMA multiplies 52-bit lane values, so the vector path needs
// P < 2^50: lazy values stay below 4P < 2^52, and its Shoup words are
// floor(W * 2^52 / P) = floor(W * 2^64 / P) >> 12. A 52-bit Shoup product
// may land P above the 64-bit one, but both transforms end fully reduced,
// so their outputs are bit-identical to the scalar ones. The pointwise
// kernels reduce fully too (math/Ifma52.h).
//===----------------------------------------------------------------------===//

namespace {

using namespace porcupine::ifma52;

/// Cooley-Tukey butterfly on inputs < 4P: X, Y <- U + V, U + 2P - V with
/// U = X reduced below 2P and V = Y * W lazily; outputs stay below 4P.
PORCUPINE_IFMA_TARGET inline void forwardButterfly(__m512i &X, __m512i &Y,
                                                   __m512i W, __m512i WShoup,
                                                   const Lanes &C) {
  __m512i U = reduceBelow(X, C.TwoP);
  __m512i V = mulShoupLazy(Y, W, WShoup, C);
  X = _mm512_add_epi64(U, V);
  Y = _mm512_sub_epi64(_mm512_add_epi64(U, C.TwoP), V);
}

/// Gentleman-Sande butterfly on inputs < 2P: X, Y <- X + Y reduced below
/// 2P, (X + 2P - Y) * W lazily; outputs stay below 2P.
PORCUPINE_IFMA_TARGET inline void inverseButterfly(__m512i &X, __m512i &Y,
                                                   __m512i W, __m512i WShoup,
                                                   const Lanes &C) {
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
                                     const Lanes &C) {
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
                                       const Lanes &C) {
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
PORCUPINE_IFMA_TARGET void forwardIfma(uint64_t *X, size_t N,
                                       const Barrett52 &B, const uint64_t *Tw,
                                       const uint64_t *TwShoup) {
  Lanes C = lanes(B);
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
PORCUPINE_IFMA_TARGET void inverseIfma(uint64_t *X, size_t N,
                                       const Barrett52 &B, const uint64_t *Tw,
                                       const uint64_t *TwShoup, uint64_t NInv,
                                       uint64_t NInvShoup) {
  Lanes C = lanes(B);
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

/// NttTables::mulPointwise (Base null) and mulAddPointwise (Base = Out).
PORCUPINE_IFMA_TARGET void mulIfma(const uint64_t *X, const uint64_t *Y,
                                   const uint64_t *Base, uint64_t *Out,
                                   size_t N, const Barrett52 &B) {
  Lanes C = lanes(B);
  for (size_t J = 0; J < N; J += 8) {
    __m512i Acc = Base ? load(Base + J) : _mm512_setzero_si512();
    store(Out + J, mulAddMod(load(X + J), load(Y + J), Acc, C));
  }
}

/// NttTables::mulScalar: X[j] * W by the 52-bit Shoup product.
PORCUPINE_IFMA_TARGET void mulScalarIfma(const uint64_t *X, uint64_t W,
                                         uint64_t WShoup64, uint64_t *Out,
                                         size_t N, const Barrett52 &B) {
  Lanes C = lanes(B);
  __m512i WV = splat(W), WShoup = shoup52(splat(WShoup64));
  for (size_t J = 0; J < N; J += 8)
    store(Out + J,
          reduceBelow(mulShoupLazy(load(X + J), WV, WShoup, C), C.P));
}

enum class LaneOp { Add, Sub, Negate };

/// NttTables::addPointwise, subPointwise and negatePointwise.
template <LaneOp Op>
PORCUPINE_IFMA_TARGET void addSubIfma(const uint64_t *X, const uint64_t *Y,
                                      uint64_t *Out, size_t N,
                                      const Barrett52 &B) {
  Lanes C = lanes(B);
  for (size_t J = 0; J < N; J += 8) {
    __m512i V = load(X + J);
    if (Op == LaneOp::Add)
      V = addMod(V, load(Y + J), C);
    else if (Op == LaneOp::Sub)
      V = subMod(V, load(Y + J), C);
    else
      V = negMod(V, C);
    store(Out + J, V);
  }
}

/// NttTables::keySwitchInnerProduct. Each slot sums low and high product
/// halves of up to Chunk digits onto its running residue, then reduces.
template <bool Permuted>
PORCUPINE_IFMA_TARGET void
keySwitchIfma(size_t N, size_t Digits, size_t Chunk, const uint64_t *const *X,
              const uint64_t *const *K0, const uint64_t *const *K1,
              const uint32_t *Perm, const uint64_t *C0, uint64_t *Acc0,
              uint64_t *Acc1, const Barrett52 &B) {
  Lanes C = lanes(B);
  __m512i Zero = _mm512_setzero_si512();
  __m256i Idx = _mm256_setzero_si256();
  for (size_t J = 0; J < N; J += 8) {
    if (Permuted)
      Idx = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Perm + J));
    __m512i Lo0 = !C0 ? load(Acc0 + J) : Permuted ? gather(C0, Idx)
                                                  : load(C0 + J);
    __m512i Lo1 = load(Acc1 + J);
    __m512i Hi0 = Zero, Hi1 = Zero;
    for (size_t D = 0, Left = Chunk; D < Digits; ++D, --Left) {
      if (Left == 0) {
        Lo0 = barrettReduce(Lo0, Hi0, C);
        Lo1 = barrettReduce(Lo1, Hi1, C);
        Hi0 = Hi1 = Zero;
        Left = Chunk;
      }
      __m512i V = Permuted ? gather(X[D], Idx) : load(X[D] + J);
      __m512i W0 = load(K0[D] + J), W1 = load(K1[D] + J);
      Lo0 = _mm512_madd52lo_epu64(Lo0, V, W0);
      Hi0 = _mm512_madd52hi_epu64(Hi0, V, W0);
      Lo1 = _mm512_madd52lo_epu64(Lo1, V, W1);
      Hi1 = _mm512_madd52hi_epu64(Hi1, V, W1);
    }
    store(Acc0 + J, barrettReduce(Lo0, Hi0, C));
    store(Acc1 + J, barrettReduce(Lo1, Hi1, C));
  }
}

} // namespace
#endif // PORCUPINE_IFMA52

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
#ifdef PORCUPINE_IFMA52
  Vector = AllowVector && P < (1ull << 50) && N >= 16 &&
           ifma52::cpuSupported();
  if (Vector) {
    Lane = Barrett52(P);
    // The first digit's sum starts from a residue below P.
    LaneDigits = Lane.lazyTerms(P - 1, P - 1, P - 1);
    assert(LaneDigits >= 2 && "a lane sum holds at least two products");
  }
#else
  (void)AllowVector;
#endif
}

void NttTables::forwardTransform(std::vector<uint64_t> &Values) const {
  assert(Values.size() == N && "length mismatch");
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return forwardIfma(Values.data(), N, Lane, PsiBitRev.data(),
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
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return inverseIfma(Values.data(), N, Lane, InvPsiBitRev.data(),
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
  mulPointwise(FA.data(), FB.data(), FA.data());
  inverseTransform(FA);
  return FA;
}

void NttTables::mulPointwise(const uint64_t *X, const uint64_t *Y,
                             uint64_t *Out) const {
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return mulIfma(X, Y, nullptr, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = Red.mulMod(X[J], Y[J]);
}

void NttTables::mulAddPointwise(const uint64_t *X, const uint64_t *Y,
                                uint64_t *Out) const {
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return mulIfma(X, Y, Out, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = Red.reduce(static_cast<unsigned __int128>(X[J]) * Y[J] + Out[J]);
}

void NttTables::mulScalar(const uint64_t *X, uint64_t W, uint64_t *Out) const {
  uint64_t WShoup = shoupPrecompute(W, P);
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return mulScalarIfma(X, W, WShoup, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = mulModShoup(X[J], W, WShoup, P);
}

void NttTables::addPointwise(const uint64_t *X, const uint64_t *Y,
                             uint64_t *Out) const {
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return addSubIfma<LaneOp::Add>(X, Y, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = addMod(X[J], Y[J], P);
}

void NttTables::subPointwise(const uint64_t *X, const uint64_t *Y,
                             uint64_t *Out) const {
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return addSubIfma<LaneOp::Sub>(X, Y, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = subMod(X[J], Y[J], P);
}

void NttTables::negatePointwise(const uint64_t *X, uint64_t *Out) const {
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return addSubIfma<LaneOp::Negate>(X, nullptr, Out, N, Lane);
#endif
  for (size_t J = 0; J < N; ++J)
    Out[J] = negMod(X[J], P);
}

void NttTables::keySwitchInnerProduct(size_t Digits, const uint64_t *const *X,
                                      const uint64_t *const *K0,
                                      const uint64_t *const *K1,
                                      const uint32_t *Perm, const uint64_t *C0,
                                      uint64_t *Acc0, uint64_t *Acc1) const {
  assert(Digits > 0 && "key switching needs at least one digit");
#ifdef PORCUPINE_IFMA52
  if (Vector)
    return Perm ? keySwitchIfma<true>(N, Digits, LaneDigits, X, K0, K1, Perm,
                                      C0, Acc0, Acc1, Lane)
                : keySwitchIfma<false>(N, Digits, LaneDigits, X, K0, K1,
                                       nullptr, C0, Acc0, Acc1, Lane);
#endif
  // Lazy reduction: sum the digits' 128-bit products unreduced and reduce
  // once per slot. A product is at most (P-1)^2, which bounds how many can
  // be summed without overflow (at least 16 for any P < 2^62).
  unsigned __int128 MaxProduct =
      static_cast<unsigned __int128>(P - 1) * (P - 1);
  size_t Chunk = static_cast<size_t>(std::min<unsigned __int128>(
      ~static_cast<unsigned __int128>(0) / MaxProduct, Digits));
  for (size_t First = 0; First < Digits; First += Chunk) {
    size_t Last = std::min(First + Chunk, Digits);
    // The first chunk starts c0's sum from the permuted C0 when given.
    const uint64_t *Base0 = First == 0 && C0 ? C0 : nullptr;
    for (size_t J = 0; J < N; ++J) {
      size_t From = Perm ? Perm[J] : J;
      unsigned __int128 S0 = 0, S1 = 0;
      for (size_t D = First; D < Last; ++D) {
        uint64_t V = X[D][From];
        S0 += static_cast<unsigned __int128>(V) * K0[D][J];
        S1 += static_cast<unsigned __int128>(V) * K1[D][J];
      }
      Acc0[J] = addMod(Base0 ? Base0[From] : Acc0[J], Red.reduce(S0), P);
      Acc1[J] = addMod(Acc1[J], Red.reduce(S1), P);
    }
  }
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
