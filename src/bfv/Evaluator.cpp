//===- bfv/Evaluator.cpp - Homomorphic operations ---------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Evaluator.h"

#include "math/ModArith.h"
#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace porcupine;

/// Form of a (non-empty) ciphertext; all components share one form.
static bool isNttForm(const Ciphertext &Ct) {
  assert(!Ct.Components.empty() && "empty ciphertext has no form");
  return Ct[0].isNtt();
}

Ciphertext Evaluator::add(const Ciphertext &A, const Ciphertext &B) const {
  const Ciphertext &Long = A.size() >= B.size() ? A : B;
  const Ciphertext &Short = A.size() >= B.size() ? B : A;
  // Normalize toward NTT form: if either operand is already there, an
  // add/mul-plain chain is in flight and staying in evaluation form keeps
  // it transform-free. Two coefficient-form operands stay as they are.
  bool WantNtt = isNttForm(Long) || isNttForm(Short);
  Ciphertext Out = Long;
  if (WantNtt)
    for (auto &Component : Out.Components)
      Component.ensureNtt(Ctx);
  for (size_t I = 0; I < Short.size(); ++I) {
    if (Short[I].isNtt() == WantNtt) {
      Out[I].addAssign(Ctx, Short[I]);
    } else {
      RingPoly S = Short[I];
      S.ensureNtt(Ctx);
      Out[I].addAssign(Ctx, S);
    }
  }
  return Out;
}

Ciphertext Evaluator::sub(const Ciphertext &A, const Ciphertext &B) const {
  bool WantNtt = isNttForm(A) || isNttForm(B);
  Ciphertext Out = A;
  if (WantNtt)
    for (auto &Component : Out.Components)
      Component.ensureNtt(Ctx);
  // Pad the shorter operand with zero components (zero has the same
  // representation in both forms, so only the flag must match).
  while (Out.size() < B.size())
    Out.Components.push_back(RingPoly::zero(Ctx, WantNtt));
  for (size_t I = 0; I < B.size(); ++I) {
    if (B[I].isNtt() == WantNtt) {
      Out[I].subAssign(Ctx, B[I]);
    } else {
      RingPoly S = B[I];
      S.ensureNtt(Ctx);
      Out[I].subAssign(Ctx, S);
    }
  }
  return Out;
}

Ciphertext Evaluator::negate(const Ciphertext &A) const {
  // Negation commutes with the NTT, so the form is untouched.
  Ciphertext Out = A;
  for (auto &Component : Out.Components)
    Component.negate(Ctx);
  return Out;
}

RingPoly Evaluator::plainToRing(const Plaintext &P) const {
  // Centered embedding keeps the operand norm (and thus the multiply noise)
  // minimal.
  uint64_t T = Ctx.plainModulus();
  std::vector<int64_t> Centered(Ctx.polyDegree(), 0);
  for (size_t J = 0; J < P.Coeffs.size(); ++J)
    Centered[J] = toCentered(P.Coeffs[J] % T, T);
  return RingPoly::fromSignedCoeffs(Ctx, Centered);
}

std::shared_ptr<const RingPoly> Evaluator::plainNttForm(const Plaintext &P) const {
  // FNV-1a over the raw coefficients. Collisions are resolved by comparing
  // the stored coefficients, so a hash clash only costs a recompute.
  uint64_t H = 1469598103934665603ull;
  for (uint64_t C : P.Coeffs) {
    H ^= C;
    H *= 1099511628211ull;
  }
  H ^= P.Coeffs.size();
  H *= 1099511628211ull;

  std::lock_guard<std::mutex> Lock(PlainCacheMutex);
  auto It = PlainCache.find(H);
  if (It != PlainCache.end() && It->second.Coeffs == P.Coeffs)
    return It->second.NttForm;

  RingPoly M = plainToRing(P);
  M.toNtt(Ctx);
  auto Ptr = std::make_shared<const RingPoly>(std::move(M));
  // Bounded cache: kernels reuse a handful of constants per call, so a
  // wholesale reset on overflow is simpler than LRU and just as effective.
  if (PlainCache.size() >= 256)
    PlainCache.clear();
  PlainCache[H] = PlainCacheEntry{P.Coeffs, Ptr};
  return Ptr;
}

RingPoly Evaluator::deltaScaledPlain(const Plaintext &P) const {
  RingPoly Out = RingPoly::zero(Ctx);
  const auto &Primes = Ctx.coeffBasis().primes();
  const auto &DeltaMod = Ctx.deltaModPrimes();
  const auto &DeltaShoup = Ctx.deltaModPrimesShoup();
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Q = Primes[I];
    auto &Res = Out.residues(I);
    for (size_t J = 0; J < P.Coeffs.size(); ++J)
      Res[J] = mulModShoup(P.Coeffs[J], DeltaMod[I], DeltaShoup[I], Q);
  }
  return Out;
}

Ciphertext Evaluator::addPlain(const Ciphertext &A, const Plaintext &B) const {
  assert(!A.Components.empty());
  Ciphertext Out = A;
  RingPoly Addend = deltaScaledPlain(B);
  if (Out[0].isNtt())
    Addend.toNtt(Ctx);
  Out[0].addAssign(Ctx, Addend);
  return Out;
}

Ciphertext Evaluator::subPlain(const Ciphertext &A, const Plaintext &B) const {
  assert(!A.Components.empty());
  Ciphertext Out = A;
  RingPoly Subtrahend = deltaScaledPlain(B);
  if (Out[0].isNtt())
    Subtrahend.toNtt(Ctx);
  Out[0].subAssign(Ctx, Subtrahend);
  return Out;
}

std::vector<BigInt> Evaluator::exactConvolution(const RingPoly &A,
                                                const RingPoly &B) const {
  size_t N = Ctx.polyDegree();
  const auto &Aux = Ctx.auxBasis();
  const auto &AuxNtt = Ctx.auxNtt();

  std::vector<BigInt> ALift = A.liftCentered(Ctx);
  std::vector<BigInt> BLift = B.liftCentered(Ctx);

  // Convolve modulo each auxiliary prime, then CRT-reconstruct the exact
  // signed integer result (|result| < Maux/2 by construction of the basis).
  std::vector<std::vector<uint64_t>> ResidueProducts(Aux.count());
  for (size_t P = 0; P < Aux.count(); ++P) {
    uint64_t Prime = Aux.primes()[P];
    std::vector<uint64_t> AR(N), BR(N);
    for (size_t J = 0; J < N; ++J) {
      AR[J] = ALift[J].modWord(Prime);
      BR[J] = BLift[J].modWord(Prime);
    }
    ResidueProducts[P] = AuxNtt[P].multiply(AR, BR);
  }

  std::vector<BigInt> Out(N);
  std::vector<uint64_t> Slice(Aux.count());
  for (size_t J = 0; J < N; ++J) {
    for (size_t P = 0; P < Aux.count(); ++P)
      Slice[P] = ResidueProducts[P][J];
    Out[J] = Aux.reconstructCentered(Slice);
  }
  return Out;
}

/// Scales each wide coefficient by t/Q with rounding and reduces into RNS.
static RingPoly scaleToRing(const BfvContext &Ctx,
                            const std::vector<BigInt> &Wide) {
  const BigInt &Q = Ctx.coeffModulus();
  BigInt T = BigInt::fromU64(Ctx.plainModulus());
  RingPoly Out = RingPoly::zero(Ctx);
  const auto &Primes = Ctx.coeffBasis().primes();
  for (size_t J = 0; J < Wide.size(); ++J) {
    BigInt Scaled = (Wide[J] * T).divRoundNearest(Q);
    for (size_t I = 0; I < Primes.size(); ++I)
      Out.residues(I)[J] = Scaled.modWord(Primes[I]);
  }
  return Out;
}

Ciphertext Evaluator::multiply(const Ciphertext &A, const Ciphertext &B) const {
  if (A.size() != 2 || B.size() != 2)
    fatalError("multiply requires two-component operands; relinearize first");
  return UseRns ? multiplyRns(A, B) : multiplyBigInt(A, B);
}

Ciphertext Evaluator::multiplyBigInt(const Ciphertext &A,
                                     const Ciphertext &B) const {
  // BFV tensor product: e0 = a0*b0, e1 = a0*b1 + a1*b0, e2 = a1*b1 over the
  // integers, each scaled by t/Q with rounding.
  RingPoly A0 = A[0], A1 = A[1], B0 = B[0], B1 = B[1];
  A0.ensureCoeff(Ctx);
  A1.ensureCoeff(Ctx);
  B0.ensureCoeff(Ctx);
  B1.ensureCoeff(Ctx);
  std::vector<BigInt> E0 = exactConvolution(A0, B0);
  std::vector<BigInt> E1A = exactConvolution(A0, B1);
  std::vector<BigInt> E1B = exactConvolution(A1, B0);
  std::vector<BigInt> E2 = exactConvolution(A1, B1);
  for (size_t J = 0; J < E1A.size(); ++J)
    E1A[J] += E1B[J];

  Ciphertext Out;
  Out.Components.push_back(scaleToRing(Ctx, E0));
  Out.Components.push_back(scaleToRing(Ctx, E1A));
  Out.Components.push_back(scaleToRing(Ctx, E2));
  return Out;
}

RingPoly Evaluator::scaleToRingRns(
    const std::vector<std::vector<uint64_t>> &TensorAux) const {
  // The tensor coefficient e lives (exactly, as a signed value) in the
  // auxiliary basis. The goal is c = round(t*e / Q) in the coefficient
  // basis. Write t*e = Q*c + r with r the centered remainder of t*e mod Q;
  // then c = (t*e - r) / Q, computed residue-wise in the auxiliary basis
  // where division by Q is multiplication by Q^-1.
  size_t N = Ctx.polyDegree();
  const auto &CoeffPrimes = Ctx.coeffBasis().primes();
  const auto &AuxPrimes = Ctx.auxBasis().primes();

  // e mod q_i. |e| <= 2.25*N*Q^2 while Maux >= 2^8*N*Q^2, so the fraction
  // sum is far from the rounding boundary and the conversion is exact.
  std::vector<std::vector<uint64_t>> EModQ;
  Ctx.auxToCoeff().convert(TensorAux, EModQ);

  // r_i = t * e mod q_i: the residues of the centered remainder.
  std::vector<std::vector<uint64_t>> R(CoeffPrimes.size());
  const auto &TMod = Ctx.plainModPrimes();
  const auto &TShoup = Ctx.plainModPrimesShoup();
  for (size_t I = 0; I < CoeffPrimes.size(); ++I) {
    uint64_t Q = CoeffPrimes[I];
    R[I].resize(N);
    for (size_t J = 0; J < N; ++J)
      R[I][J] = mulModShoup(EModQ[I][J], TMod[I], TShoup[I], Q);
  }

  // r back into the auxiliary basis. A coefficient within float-epsilon of
  // |r| = Q/2 may convert as r -/+ Q, which shifts c by 1 -- ordinary
  // rounding noise, absorbed by the budget like any multiply noise.
  std::vector<std::vector<uint64_t>> RAux;
  Ctx.coeffToAux().convert(R, RAux);

  // c_j = (t*e_j - r_j) * Q^-1 mod p_j.
  std::vector<std::vector<uint64_t>> C(AuxPrimes.size());
  const auto &TModA = Ctx.plainModAux();
  const auto &TModAShoup = Ctx.plainModAuxShoup();
  const auto &QInv = Ctx.invQModAux();
  const auto &QInvShoup = Ctx.invQModAuxShoup();
  for (size_t P = 0; P < AuxPrimes.size(); ++P) {
    uint64_t Prime = AuxPrimes[P];
    C[P].resize(N);
    const auto &E = TensorAux[P];
    const auto &RA = RAux[P];
    for (size_t J = 0; J < N; ++J) {
      uint64_t TE = mulModShoup(E[J], TModA[P], TModAShoup[P], Prime);
      uint64_t Num = subMod(TE, RA[J], Prime);
      C[P][J] = mulModShoup(Num, QInv[P], QInvShoup[P], Prime);
    }
  }

  // |c| <= t * 2.25 * N * Q << Maux / 2: exact conversion back.
  RingPoly Out = RingPoly::zero(Ctx);
  Ctx.auxToCoeff().convert(C, Out.allResidues());
  return Out;
}

Ciphertext Evaluator::multiplyRns(const Ciphertext &A,
                                  const Ciphertext &B) const {
  size_t N = Ctx.polyDegree();
  const auto &AuxPrimes = Ctx.auxBasis().primes();
  size_t KAux = AuxPrimes.size();
  const auto &AuxNtt = Ctx.auxNtt();

  // 1. Extend every component into the auxiliary basis and transform. The
  // fast conversion yields (nearly) centered lifts -- a coefficient within
  // float-epsilon of |x| = Q/2 may land at x -/+ Q, which perturbs the
  // product by t*|u*ct(s)|/Q ~ t^2-scale noise after rounding: harmless.
  std::array<std::vector<std::vector<uint64_t>>, 4> Ops;
  const RingPoly *Sources[4] = {&A[0], &A[1], &B[0], &B[1]};
  for (size_t S = 0; S < 4; ++S) {
    RingPoly C = *Sources[S];
    C.ensureCoeff(Ctx);
    Ctx.coeffToAux().convert(C.allResidues(), Ops[S]);
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].forwardTransform(Ops[S][P]);
  }

  // 2. Pointwise tensor: e0 = a0*b0, e1 = a0*b1 + a1*b0, e2 = a1*b1. The
  // auxiliary modulus exceeds 2^8 * N * Q^2, so the signed convolutions are
  // represented exactly.
  std::array<std::vector<std::vector<uint64_t>>, 3> Tensor;
  for (auto &T : Tensor) {
    T.resize(KAux);
    for (auto &V : T)
      V.resize(N);
  }
  for (size_t P = 0; P < KAux; ++P) {
    uint64_t Prime = AuxPrimes[P];
    const BarrettReducer &Red = AuxNtt[P].reducer();
    const auto &A0 = Ops[0][P];
    const auto &A1 = Ops[1][P];
    const auto &B0 = Ops[2][P];
    const auto &B1 = Ops[3][P];
    for (size_t J = 0; J < N; ++J) {
      Tensor[0][P][J] = Red.mulMod(A0[J], B0[J]);
      Tensor[1][P][J] =
          addMod(Red.mulMod(A0[J], B1[J]), Red.mulMod(A1[J], B0[J]), Prime);
      Tensor[2][P][J] = Red.mulMod(A1[J], B1[J]);
    }
  }
  for (auto &T : Tensor)
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].inverseTransform(T[P]);

  // 3. Scale each component by t/Q with rounding, landing in the
  // coefficient basis.
  Ciphertext Out;
  for (auto &T : Tensor)
    Out.Components.push_back(scaleToRingRns(T));
  return Out;
}

Ciphertext Evaluator::multiplyPlain(const Ciphertext &A,
                                    const Plaintext &B) const {
  std::shared_ptr<const RingPoly> M = plainNttForm(B);
  Ciphertext Out;
  for (const RingPoly &Component : A.Components) {
    RingPoly C = Component;
    C.ensureNtt(Ctx);
    C.mulAssignNtt(Ctx, *M);
    // Stay in evaluation form: adds and further plaintext multiplies chain
    // without transforms, and consumers that need coefficients convert at
    // their own boundary.
    Out.Components.push_back(std::move(C));
  }
  return Out;
}

/// One NTT-form gadget digit whose coefficient j is DigitAt(j). A digit can
/// exceed a smaller coefficient prime, so embedding reduces through that
/// prime's Barrett table (skipped on the common in-range path). Each
/// residue is filled and transformed while it is still cache-hot.
template <typename DigitFn>
static RingPoly nttDigit(const BfvContext &Ctx, DigitFn DigitAt) {
  RingPoly Out = RingPoly::zero(Ctx, /*InNttForm=*/true);
  for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
    auto &Res = Out.residues(I);
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    const BarrettReducer &Red = Ctx.coeffNtt()[I].reducer();
    for (size_t J = 0; J < Res.size(); ++J) {
      uint64_t V = DigitAt(J);
      Res[J] = V < Q ? V : Red.reduce(V);
    }
    Ctx.coeffNtt()[I].forwardTransform(Res);
  }
  return Out;
}

std::vector<RingPoly> Evaluator::decompose(const RingPoly &P,
                                           GadgetKind Kind) const {
  RingPoly Src = P;
  Src.ensureCoeff(Ctx);
  unsigned Width = Ctx.decompWidth();
  std::vector<RingPoly> Digits;
  if (Kind == GadgetKind::RnsPerPrime) {
    // Digit (i, shift) takes bits [shift, shift + w) of residue x_i. With
    // the default width a whole residue is one digit: the classic per-prime
    // gadget digit_i = x mod q_i, with no wide integers.
    uint64_t Mask = Width >= 64 ? ~uint64_t(0) : (uint64_t(1) << Width) - 1;
    for (const auto &Digit : Ctx.rnsGadget()) {
      const auto &SrcRes = Src.residues(Digit.SourcePrime);
      Digits.push_back(nttDigit(Ctx, [&](size_t J) {
        return (SrcRes[J] >> Digit.Shift) & Mask;
      }));
    }
    return Digits;
  }
  // Base-2^w digits of the canonical BigInt lift.
  std::vector<BigInt> Lifted = Src.liftCanonical(Ctx);
  std::vector<uint64_t> Values(Lifted.size());
  for (unsigned D = 0; D < Ctx.decompDigitCount(); ++D) {
    for (size_t J = 0; J < Lifted.size(); ++J)
      Values[J] = Lifted[J].digit(D, Width);
    Digits.push_back(nttDigit(Ctx, [&](size_t J) { return Values[J]; }));
  }
  return Digits;
}

void Evaluator::keySwitchAccumulate(const std::vector<RingPoly> &Digits,
                                    const KeySwitchKey &Key,
                                    const uint32_t *Perm, RingPoly &Acc0,
                                    RingPoly &Acc1) const {
  if (Key.K0.size() != Digits.size())
    fatalError("key-switching key was generated for a different gadget");
  assert(Acc0.isNtt() && Acc1.isNtt() && "accumulators must be in NTT form");
  size_t N = Ctx.polyDegree();
  size_t NumDigits = Digits.size();
  std::vector<const uint64_t *> X(NumDigits), K0(NumDigits), K1(NumDigits);
  for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
    uint64_t Q = Ctx.coeffBasis().primes()[I];
    const BarrettReducer &Red = Ctx.coeffNtt()[I].reducer();
    for (size_t D = 0; D < NumDigits; ++D) {
      assert(Digits[D].isNtt() && "digits must be in NTT form");
      X[D] = Digits[D].residues(I).data();
      K0[D] = Key.K0[D].residues(I).data();
      K1[D] = Key.K1[D].residues(I).data();
    }
    // Lazy reduction: sum the digits' 128-bit products unreduced and reduce
    // once per slot. A product is at most (Q-1)^2, which bounds how many
    // can be summed without overflow (at least 16 for any Q < 2^62).
    unsigned __int128 MaxProduct =
        static_cast<unsigned __int128>(Q - 1) * (Q - 1);
    size_t Chunk = static_cast<size_t>(std::min<unsigned __int128>(
        ~static_cast<unsigned __int128>(0) / MaxProduct, NumDigits));
    uint64_t *O0 = Acc0.residues(I).data();
    uint64_t *O1 = Acc1.residues(I).data();
    for (size_t First = 0; First < NumDigits; First += Chunk) {
      size_t Last = std::min(First + Chunk, NumDigits);
      for (size_t J = 0; J < N; ++J) {
        size_t From = Perm ? Perm[J] : J;
        unsigned __int128 S0 = 0, S1 = 0;
        for (size_t D = First; D < Last; ++D) {
          uint64_t V = X[D][From];
          S0 += static_cast<unsigned __int128>(V) * K0[D][J];
          S1 += static_cast<unsigned __int128>(V) * K1[D][J];
        }
        O0[J] = addMod(O0[J], Red.reduce(S0), Q);
        O1[J] = addMod(O1[J], Red.reduce(S1), Q);
      }
    }
  }
}

Ciphertext Evaluator::relinearize(const Ciphertext &A,
                                  const RelinKeys &Keys) const {
  if (A.size() == 2)
    return A;
  if (A.size() != 3)
    fatalError("relinearize expects a two- or three-component ciphertext");
  std::vector<RingPoly> Digits = decompose(A[2], Keys.Key.Kind);
  Ciphertext Out;
  Out.Components = {A[0], A[1]};
  // The switched c2 * s^2 comes out in NTT form: accumulate it straight
  // into NTT-form components, or transform it once for coefficient form.
  if (isNttForm(A)) {
    keySwitchAccumulate(Digits, Keys.Key, nullptr, Out[0], Out[1]);
    return Out;
  }
  RingPoly D0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly D1 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  keySwitchAccumulate(Digits, Keys.Key, nullptr, D0, D1);
  D0.fromNtt(Ctx);
  D1.fromNtt(Ctx);
  Out[0].addAssign(Ctx, D0);
  Out[1].addAssign(Ctx, D1);
  return Out;
}

HoistedCiphertext Evaluator::hoist(const Ciphertext &A,
                                   GadgetKind Kind) const {
  if (A.size() != 2)
    fatalError("rotation requires a two-component ciphertext; "
               "relinearize first");
  HoistedCiphertext H{A[0], decompose(A[1], Kind), Kind};
  H.C0.ensureNtt(Ctx);
  return H;
}

Ciphertext Evaluator::applyGalois(const HoistedCiphertext &H, uint64_t Elt,
                                  const GaloisKeys &Keys) const {
  if (!Keys.hasKey(Elt))
    fatalError("missing Galois key for the requested rotation");
  const GaloisKey &Key = Keys.key(Elt);
  if (Key.Switch.Kind != H.Kind)
    fatalError("hoisted ciphertext and Galois key use different gadgets");
  // sigma(c0) + sigma(c1) * sigma(s) decrypts the rotated message. The
  // automorphism only permutes and negates coefficients, so the permuted
  // digits of c1 are a decomposition of sigma(c1) with the same norm, and
  // the key switches sigma(s) back to s.
  const uint32_t *Perm = Key.NttPermutation.data();
  RingPoly C0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  for (size_t I = 0; I < C0.primeCount(); ++I) {
    const auto &In = H.C0.residues(I);
    auto &Out = C0.residues(I);
    for (size_t J = 0; J < Out.size(); ++J)
      Out[J] = In[Perm[J]];
  }
  RingPoly C1 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  keySwitchAccumulate(H.Digits, Key.Switch, Perm, C0, C1);
  Ciphertext Out;
  Out.Components.push_back(std::move(C0));
  Out.Components.push_back(std::move(C1));
  return Out;
}

Ciphertext Evaluator::rotateRows(const Ciphertext &A, int Steps,
                                 const GaloisKeys &Keys) const {
  uint64_t Elt = Encoder.galoisEltForRotation(Steps);
  return Elt == 1 ? A : rotate(A, Elt, Keys);
}

Ciphertext Evaluator::rotateColumns(const Ciphertext &A,
                                    const GaloisKeys &Keys) const {
  return rotate(A, Encoder.galoisEltForColumnSwap(), Keys);
}

Ciphertext Evaluator::rotate(const Ciphertext &A, uint64_t Elt,
                             const GaloisKeys &Keys) const {
  if (!Keys.hasKey(Elt))
    fatalError("missing Galois key for the requested rotation");
  return applyGalois(hoist(A, Keys.key(Elt).Switch.Kind), Elt, Keys);
}
