//===- bfv/Evaluator.cpp - Homomorphic operations ---------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Evaluator.h"

#include "math/ModArith.h"
#include "support/Error.h"

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

Ciphertext Evaluator::multiplyRns(const Ciphertext &A,
                                  const Ciphertext &B) const {
  size_t N = Ctx.polyDegree();
  size_t KAux = Ctx.auxBasis().count();
  const auto &AuxNtt = Ctx.auxNtt();
  // A square (the same object twice) extends and transforms its two
  // components once and forms e1 = 2 * a0 * a1.
  bool Square = &A == &B;

  // 1. Extend every distinct component into the auxiliary basis and
  // transform. The fast conversion yields (nearly) centered lifts -- a
  // coefficient within float-epsilon of |x| = Q/2 may land at x -/+ Q,
  // which perturbs the product by t*|u*ct(s)|/Q ~ t^2-scale noise after
  // rounding: harmless.
  using AuxResidues = std::vector<std::vector<uint64_t>>;
  std::array<AuxResidues, 4> Ops;
  auto Extend = [&](const RingPoly &Src, AuxResidues &Out) {
    // Only an NTT-form component needs a coefficient-form copy.
    if (Src.isNtt()) {
      RingPoly C = Src;
      C.fromNtt(Ctx);
      Ctx.coeffToAux().convert(C.allResidues(), Out);
    } else {
      Ctx.coeffToAux().convert(Src.allResidues(), Out);
    }
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].forwardTransform(Out[P]);
  };
  Extend(A[0], Ops[0]);
  Extend(A[1], Ops[1]);
  if (Square) {
    Ops[2].assign(KAux, std::vector<uint64_t>(N));
  } else {
    Extend(B[0], Ops[2]);
    Extend(B[1], Ops[3]);
  }

  // 2. Pointwise tensor: e0 = a0*b0 over a0, e2 = a1*b1 over a1, and
  // e1 = a0*b1 + a1*b0 (a square: 2*a0*a1) into the third vector. A
  // product's operands are both still needed, so e1 goes to a spare vector
  // that then trades places with b0. The auxiliary modulus exceeds
  // 2^8 * N * Q^2, so the signed convolutions are represented exactly.
  std::vector<uint64_t> Spare(Square ? 0 : N);
  for (size_t P = 0; P < KAux; ++P) {
    const NttTables &Tables = AuxNtt[P];
    uint64_t *A0 = Ops[0][P].data(), *A1 = Ops[1][P].data();
    if (Square) {
      uint64_t *E1 = Ops[2][P].data();
      Tables.mulPointwise(A0, A1, E1);
      Tables.addPointwise(E1, E1, E1);
      Tables.mulPointwise(A0, A0, A0);
      Tables.mulPointwise(A1, A1, A1);
      continue;
    }
    const uint64_t *B0 = Ops[2][P].data(), *B1 = Ops[3][P].data();
    Tables.mulPointwise(A0, B1, Spare.data());
    Tables.mulAddPointwise(A1, B0, Spare.data());
    Tables.mulPointwise(A0, B0, A0);
    Tables.mulPointwise(A1, B1, A1);
    std::swap(Ops[2][P], Spare);
  }

  // 3. Back to coefficients, then scale each component by t/Q with
  // rounding in one pass from the auxiliary basis to the coefficient one.
  Ciphertext Out;
  for (AuxResidues *E : {&Ops[0], &Ops[2], &Ops[1]}) {
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].inverseTransform((*E)[P]);
    RingPoly Component = RingPoly::zero(Ctx);
    Ctx.auxScaleToCoeff().scaleAndRound(*E, Component.allResidues());
    Out.Components.push_back(std::move(Component));
  }
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
                                    const uint32_t *Perm, const RingPoly *C0,
                                    RingPoly &Acc0, RingPoly &Acc1) const {
  if (Key.K0.size() != Digits.size())
    fatalError("key-switching key was generated for a different gadget");
  assert(Acc0.isNtt() && Acc1.isNtt() && "accumulators must be in NTT form");
  assert((!C0 || C0->isNtt()) && "c0 must be in NTT form");
  size_t NumDigits = Digits.size();
  std::vector<const uint64_t *> X(NumDigits), K0(NumDigits), K1(NumDigits);
  for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
    for (size_t D = 0; D < NumDigits; ++D) {
      assert(Digits[D].isNtt() && "digits must be in NTT form");
      X[D] = Digits[D].residues(I).data();
      K0[D] = Key.K0[D].residues(I).data();
      K1[D] = Key.K1[D].residues(I).data();
    }
    Ctx.coeffNtt()[I].keySwitchInnerProduct(
        NumDigits, X.data(), K0.data(), K1.data(), Perm,
        C0 ? C0->residues(I).data() : nullptr, Acc0.residues(I).data(),
        Acc1.residues(I).data());
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
    keySwitchAccumulate(Digits, Keys.Key, nullptr, nullptr, Out[0], Out[1]);
    return Out;
  }
  RingPoly D0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly D1 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  keySwitchAccumulate(Digits, Keys.Key, nullptr, nullptr, D0, D1);
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
  // The inner product also fills c0's accumulator with the permuted c0.
  RingPoly C0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly C1 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  keySwitchAccumulate(H.Digits, Key.Switch, Key.NttPermutation.data(), &H.C0,
                      C0, C1);
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
