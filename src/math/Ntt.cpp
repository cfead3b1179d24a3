//===- math/Ntt.cpp - Negacyclic number-theoretic transform ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/Ntt.h"

#include "math/ModArith.h"
#include "math/Primes.h"

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

NttTables::NttTables(size_t N, uint64_t P) : N(N), P(P), Red(P) {
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
}

void NttTables::forwardTransform(std::vector<uint64_t> &Values) const {
  assert(Values.size() == N && "length mismatch");
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
