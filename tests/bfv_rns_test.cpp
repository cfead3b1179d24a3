//===- tests/bfv_rns_test.cpp - RNS hot path vs BigInt oracle -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the RNS-native BFV hot paths against the original
/// wide-integer reference implementations, plus the invariants the lazy
/// NTT-form discipline and the fast base converter must uphold. Randomized
/// cases seed through porcupine::testSeed() so failures replay exactly.
///
//===----------------------------------------------------------------------===//

#include "bfv/BatchEncoder.h"
#include "bfv/BfvContext.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "math/Crt.h"
#include "math/ModArith.h"
#include "support/Random.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace porcupine;

namespace {

/// Parameters sized so the default decomposition width (one RNS digit per
/// prime) is in effect and digits from one 40-bit prime can exceed another,
/// covering the reduce-on-embed branch of keySwitchRns.
BfvParams rnsParams() {
  BfvParams P;
  P.PolyDegree = 1024;
  P.PlainModulus = 65537;
  P.CoeffPrimeBits = {40, 40, 40};
  return P;
}

struct RnsFixture : public ::testing::Test {
  RnsFixture()
      : Ctx(rnsParams()), R(testSeed(0)), Keygen(Ctx, R),
        Enc(Ctx, Keygen.createPublicKey(), R),
        DecRns(Ctx, Keygen.secretKey(), /*UseRnsPath=*/true),
        DecBig(Ctx, Keygen.secretKey(), /*UseRnsPath=*/false),
        EvalRns(Ctx, /*UseRnsHotPath=*/true),
        EvalBig(Ctx, /*UseRnsHotPath=*/false), Encoder(Ctx) {}

  std::vector<uint64_t> randomSlots() {
    return R.vectorBelow(Ctx.plainModulus(), Ctx.polyDegree());
  }

  Ciphertext encryptSlots(const std::vector<uint64_t> &Slots) {
    return Enc.encrypt(Encoder.encode(Slots));
  }

  BfvContext Ctx;
  Rng R;
  KeyGenerator Keygen;
  Encryptor Enc;
  Decryptor DecRns;
  Decryptor DecBig;
  Evaluator EvalRns;
  Evaluator EvalBig;
  BatchEncoder Encoder;
};

//===----------------------------------------------------------------------===//
// Differential: RNS hot path vs BigInt oracle
//===----------------------------------------------------------------------===//

TEST_F(RnsFixture, MultiplyMatchesBigIntOracle) {
  SeedReporter Report(testSeedBase());
  for (int Round = 0; Round < 4; ++Round) {
    auto U = randomSlots(), V = randomSlots();
    auto CtU = encryptSlots(U), CtV = encryptSlots(V);

    Ciphertext ProdRns = EvalRns.multiply(CtU, CtV);
    Ciphertext ProdBig = EvalBig.multiply(CtU, CtV);

    // The two tensor pipelines may differ by scheme noise in the ciphertext
    // bits, but both decryptors must read back the same plaintext bytes
    // from either result.
    Plaintext Expected = Encoder.encode([&] {
      std::vector<uint64_t> W(U.size());
      for (size_t I = 0; I < U.size(); ++I)
        W[I] = U[I] * V[I] % Ctx.plainModulus();
      return W;
    }());
    EXPECT_EQ(DecRns.decrypt(ProdRns), Expected);
    EXPECT_EQ(DecBig.decrypt(ProdRns), Expected);
    EXPECT_EQ(DecRns.decrypt(ProdBig), Expected);
    EXPECT_EQ(DecBig.decrypt(ProdBig), Expected);
  }
}

TEST_F(RnsFixture, RelinearizeMatchesAcrossGadgets) {
  SeedReporter Report(testSeedBase());
  RelinKeys RlkRns = Keygen.createRelinKeys(GadgetKind::RnsPerPrime);
  RelinKeys RlkBig = Keygen.createRelinKeys(GadgetKind::PowerOfTwo);
  auto U = randomSlots(), V = randomSlots();
  Ciphertext Prod = EvalRns.multiply(encryptSlots(U), encryptSlots(V));

  Ciphertext ViaRns = EvalRns.relinearize(Prod, RlkRns);
  Ciphertext ViaBig = EvalBig.relinearize(Prod, RlkBig);
  ASSERT_EQ(ViaRns.size(), 2u);
  ASSERT_EQ(ViaBig.size(), 2u);

  std::vector<uint64_t> Expected(U.size());
  for (size_t I = 0; I < U.size(); ++I)
    Expected[I] = U[I] * V[I] % Ctx.plainModulus();
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(ViaRns)), Expected);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(ViaBig)), Expected);
}

TEST_F(RnsFixture, RotationMatchesAcrossGadgets) {
  SeedReporter Report(testSeedBase());
  std::vector<int> Steps = {1, -1, 3};
  GaloisKeys GkRns = Keygen.createGaloisKeys(Steps, /*IncludeColumnSwap=*/false,
                                             GadgetKind::RnsPerPrime);
  GaloisKeys GkBig = Keygen.createGaloisKeys(Steps, /*IncludeColumnSwap=*/false,
                                             GadgetKind::PowerOfTwo);
  auto U = randomSlots();
  Ciphertext Ct = encryptSlots(U);
  size_t Row = Encoder.rowSize();

  for (int S : Steps) {
    size_t Shift = static_cast<size_t>(
        ((S % static_cast<int>(Row)) + static_cast<int>(Row)) %
        static_cast<int>(Row));
    std::vector<uint64_t> Expected(U.size(), 0);
    for (size_t I = 0; I < Row; ++I) {
      Expected[I] = U[(I + Shift) % Row];
      Expected[Row + I] = U[Row + (I + Shift) % Row];
    }
    EXPECT_EQ(Encoder.decode(DecRns.decrypt(EvalRns.rotateRows(Ct, S, GkRns))),
              Expected);
    EXPECT_EQ(Encoder.decode(DecRns.decrypt(EvalBig.rotateRows(Ct, S, GkBig))),
              Expected);
  }
}

/// \p U with every batching row rotated left by \p Steps (BatchEncoder
/// conventions; negative rotates right).
static std::vector<uint64_t> rotatedRows(const std::vector<uint64_t> &U,
                                         int Steps) {
  size_t Row = U.size() / 2;
  long Shift = Steps % static_cast<long>(Row);
  if (Shift < 0)
    Shift += static_cast<long>(Row);
  std::vector<uint64_t> Out(U.size());
  for (size_t I = 0; I < Row; ++I) {
    Out[I] = U[(I + static_cast<size_t>(Shift)) % Row];
    Out[Row + I] = U[Row + (I + static_cast<size_t>(Shift)) % Row];
  }
  return Out;
}

TEST_F(RnsFixture, HoistedRotationsMatchPerStepRotation) {
  SeedReporter Report(testSeedBase());
  // One hoisted ciphertext serves many Galois elements. Each result must
  // be byte-equal to a per-step rotateRows and decrypt to the rotated
  // slots, for both gadgets and for coefficient- and NTT-form inputs.
  std::vector<int> Steps = {1,  2,   3, -1, -7, 100,
                            static_cast<int>(Encoder.rowSize()) - 1};
  auto U = randomSlots(), W = randomSlots();
  uint64_t T = Ctx.plainModulus();
  std::vector<uint64_t> UW(U.size());
  for (size_t I = 0; I < U.size(); ++I)
    UW[I] = U[I] * W[I] % T;
  Ciphertext CoeffForm = encryptSlots(U);
  Ciphertext NttForm = EvalRns.multiplyPlain(encryptSlots(U),
                                             Encoder.encode(W));
  ASSERT_FALSE(CoeffForm[0].isNtt());
  ASSERT_TRUE(NttForm[0].isNtt());

  for (GadgetKind Kind : {GadgetKind::RnsPerPrime, GadgetKind::PowerOfTwo}) {
    GaloisKeys Gk =
        Keygen.createGaloisKeys(Steps, /*IncludeColumnSwap=*/false, Kind);
    for (const auto &[Ct, Slots] :
         {std::make_pair(&CoeffForm, &U), std::make_pair(&NttForm, &UW)}) {
      HoistedCiphertext H = EvalRns.hoist(*Ct, Kind);
      for (int S : Steps) {
        Ciphertext Hoisted =
            EvalRns.applyGalois(H, Encoder.galoisEltForRotation(S), Gk);
        Ciphertext PerStep = EvalRns.rotateRows(*Ct, S, Gk);
        ASSERT_EQ(Hoisted.size(), 2u);
        EXPECT_TRUE(Hoisted[0].isNtt());
        EXPECT_TRUE(Hoisted[0] == PerStep[0] && Hoisted[1] == PerStep[1])
            << "step " << S;
        EXPECT_EQ(Encoder.decode(DecRns.decrypt(Hoisted)),
                  rotatedRows(*Slots, S))
            << "step " << S;
      }
    }
  }
}

TEST(KeySwitchInnerProduct, ManyWideDigitsReduceInChunks) {
  // 62-bit primes with 1-bit digits give 124 gadget digits per switch:
  // far more 128-bit products per slot than fit in one unreduced sum, so
  // the inner product must reduce in chunks. Relinearization and rotation
  // must still decrypt exactly.
  BfvParams Params;
  Params.PolyDegree = 1024;
  Params.CoeffPrimeBits = {62, 62};
  Params.DecompWidth = 1;
  BfvContext Ctx(Params);
  ASSERT_GT(Ctx.rnsGadget().size(), 64u);
  uint64_t Seed = testSeed(3);
  SeedReporter Report(Seed);
  Rng R(Seed);
  KeyGenerator Keygen(Ctx, R);
  Encryptor Enc(Ctx, Keygen.createPublicKey(), R);
  Decryptor Dec(Ctx, Keygen.secretKey());
  Evaluator Eval(Ctx);
  BatchEncoder Encoder(Ctx);
  RelinKeys Rlk = Keygen.createRelinKeys();
  GaloisKeys Gk = Keygen.createGaloisKeys({1});

  uint64_t T = Ctx.plainModulus();
  auto U = R.vectorBelow(T, Ctx.polyDegree());
  auto V = R.vectorBelow(T, Ctx.polyDegree());
  Ciphertext CtU = Enc.encrypt(Encoder.encode(U));
  Ciphertext CtV = Enc.encrypt(Encoder.encode(V));
  std::vector<uint64_t> UV(U.size());
  for (size_t I = 0; I < U.size(); ++I)
    UV[I] = U[I] * V[I] % T;
  EXPECT_EQ(Encoder.decode(Dec.decrypt(
                Eval.relinearize(Eval.multiply(CtU, CtV), Rlk))),
            UV);
  EXPECT_EQ(Encoder.decode(Dec.decrypt(Eval.rotateRows(CtU, 1, Gk))),
            rotatedRows(U, 1));
}

TEST_F(RnsFixture, DecryptorsAgreeByteForByte) {
  SeedReporter Report(testSeedBase());
  // Walk a small chain of operations and check the two decryptors return
  // identical plaintexts at every point, including on NTT-form ciphertexts.
  auto U = randomSlots(), V = randomSlots();
  Ciphertext A = encryptSlots(U), B = encryptSlots(V);
  Plaintext PV = Encoder.encode(V);

  Ciphertext Steps[] = {
      EvalRns.add(A, B),
      EvalRns.sub(A, B),
      EvalRns.multiplyPlain(A, PV), // leaves the result in NTT form
      EvalRns.multiply(A, B),
  };
  for (const Ciphertext &Ct : Steps)
    EXPECT_EQ(DecRns.decrypt(Ct), DecBig.decrypt(Ct));
}

TEST_F(RnsFixture, DotProductShapedChainMatchesBigIntOracle) {
  SeedReporter Report(testSeedBase());
  // The Dot Product kernel's shape — multiply, relinearize, then a
  // rotate-and-add reduction tree — executed end to end on both paths
  // with their native gadget kinds. This is the per-kernel differential
  // oracle in miniature: every hot-path op class in one chain.
  RelinKeys RlkRns = Keygen.createRelinKeys(GadgetKind::RnsPerPrime);
  RelinKeys RlkBig = Keygen.createRelinKeys(GadgetKind::PowerOfTwo);
  std::vector<int> Steps = {1, 2, 4};
  GaloisKeys GkRns = Keygen.createGaloisKeys(Steps, /*IncludeColumnSwap=*/false,
                                             GadgetKind::RnsPerPrime);
  GaloisKeys GkBig = Keygen.createGaloisKeys(Steps, /*IncludeColumnSwap=*/false,
                                             GadgetKind::PowerOfTwo);

  auto U = randomSlots(), V = randomSlots();
  Ciphertext CtU = encryptSlots(U), CtV = encryptSlots(V);

  auto RunChain = [&](const Evaluator &Eval, const RelinKeys &Rlk,
                      const GaloisKeys &Gk) {
    Ciphertext Acc = Eval.relinearize(Eval.multiply(CtU, CtV), Rlk);
    for (int S : {4, 2, 1})
      Acc = Eval.add(Acc, Eval.rotateRows(Acc, S, Gk));
    return Acc;
  };
  Ciphertext OutRns = RunChain(EvalRns, RlkRns, GkRns);
  Ciphertext OutBig = RunChain(EvalBig, RlkBig, GkBig);

  // Plaintext reference: slot-wise product folded by the same rotations.
  uint64_t T = Ctx.plainModulus();
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> Ref(U.size());
  for (size_t I = 0; I < U.size(); ++I)
    Ref[I] = U[I] * V[I] % T;
  for (int S : {4, 2, 1}) {
    std::vector<uint64_t> Rot(Ref.size());
    for (size_t I = 0; I < Row; ++I) {
      Rot[I] = Ref[(I + static_cast<size_t>(S)) % Row];
      Rot[Row + I] = Ref[Row + (I + static_cast<size_t>(S)) % Row];
    }
    for (size_t I = 0; I < Ref.size(); ++I)
      Ref[I] = (Ref[I] + Rot[I]) % T;
  }

  EXPECT_EQ(Encoder.decode(DecRns.decrypt(OutRns)), Ref);
  EXPECT_EQ(Encoder.decode(DecBig.decrypt(OutRns)), Ref);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(OutBig)), Ref);
  EXPECT_EQ(DecRns.decrypt(OutRns), DecBig.decrypt(OutRns));
}

TEST_F(RnsFixture, MaxPlainValuesSurviveMultiply) {
  // Every slot at t-1 stresses the t/Q rounding with the largest possible
  // scaled message: (t-1)^2 = 1 mod t.
  std::vector<uint64_t> Max(Ctx.polyDegree(), Ctx.plainModulus() - 1);
  Ciphertext Ct = encryptSlots(Max);
  Ciphertext Prod = EvalRns.multiply(Ct, Ct);
  std::vector<uint64_t> Expected(Ctx.polyDegree(), 1);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(Prod)), Expected);
  EXPECT_EQ(Encoder.decode(DecBig.decrypt(Prod)), Expected);
}

//===----------------------------------------------------------------------===//
// Lazy NTT-form discipline
//===----------------------------------------------------------------------===//

TEST_F(RnsFixture, MultiplyPlainByZeroIsZero) {
  // Regression: the zero polynomial is a fixed point of the NTT, and
  // multiplyPlain must not treat an all-zero plaintext specially. The
  // product of anything with an encoded zero must decrypt to zero.
  auto U = randomSlots();
  Ciphertext Ct = encryptSlots(U);
  Plaintext Zero = Encoder.encode(std::vector<uint64_t>{});
  Ciphertext Prod = EvalRns.multiplyPlain(Ct, Zero);
  EXPECT_TRUE(Prod[0].isNtt());
  std::vector<uint64_t> Expected(Ctx.polyDegree(), 0);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(Prod)), Expected);
}

TEST_F(RnsFixture, MixedFormAddAndSubNormalize) {
  SeedReporter Report(testSeedBase());
  auto U = randomSlots(), V = randomSlots(), W = randomSlots();
  Ciphertext A = encryptSlots(U);                             // coeff form
  Ciphertext B = EvalRns.multiplyPlain(encryptSlots(V),
                                       Encoder.encode(W));    // NTT form
  ASSERT_FALSE(A[0].isNtt());
  ASSERT_TRUE(B[0].isNtt());

  std::vector<uint64_t> Sum(U.size()), Diff(U.size());
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I) {
    uint64_t VW = V[I] * W[I] % T;
    Sum[I] = (U[I] + VW) % T;
    Diff[I] = (U[I] + T - VW) % T;
  }
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(EvalRns.add(A, B))), Sum);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(EvalRns.add(B, A))), Sum);
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(EvalRns.sub(A, B))), Diff);
}

TEST_F(RnsFixture, MixedSizeSubPadsWithFormMatchedZero) {
  SeedReporter Report(testSeedBase());
  // A three-component product minus a two-component NTT-form ciphertext
  // forces the padding path to materialize a zero in the agreed form.
  auto U = randomSlots(), V = randomSlots(), W = randomSlots();
  Ciphertext Prod = EvalRns.multiply(encryptSlots(U), encryptSlots(V));
  Ciphertext B = EvalRns.multiplyPlain(encryptSlots(W),
                                       Encoder.encode(W));
  Ciphertext Out = EvalRns.sub(Prod, B);
  ASSERT_EQ(Out.size(), 3u);

  uint64_t T = Ctx.plainModulus();
  std::vector<uint64_t> Expected(U.size());
  for (size_t I = 0; I < U.size(); ++I)
    Expected[I] =
        (U[I] * V[I] % T + T - W[I] * W[I] % T) % T;
  EXPECT_EQ(Encoder.decode(DecRns.decrypt(Out)), Expected);
}

TEST_F(RnsFixture, PointwiseOpsAcceptAliasedOperands) {
  SeedReporter Report(testSeedBase());
  RingPoly P = RingPoly::sampleUniform(Ctx, R);
  RingPoly Square = RingPoly::multiply(Ctx, P, P);

  RingPoly Q = P;
  Q.ensureNtt(Ctx);
  Q.mulAssignNtt(Ctx, Q); // self-aliased square
  Q.fromNtt(Ctx);
  EXPECT_EQ(Q, Square);
}

TEST_F(RnsFixture, ZeroPolyFormFlagIsFree) {
  RingPoly ZC = RingPoly::zero(Ctx, /*InNttForm=*/false);
  RingPoly ZN = RingPoly::zero(Ctx, /*InNttForm=*/true);
  EXPECT_FALSE(ZC.isNtt());
  EXPECT_TRUE(ZN.isNtt());
  // The transform of zero is zero: flipping the flag by actual transform
  // must produce the same residues as constructing it directly.
  ZC.toNtt(Ctx);
  EXPECT_EQ(ZC, ZN);
}

//===----------------------------------------------------------------------===//
// Fast base conversion edge cases
//===----------------------------------------------------------------------===//

/// Expected target residues of the centered representative of X in [0, Q):
/// X itself when X <= Q/2, X - Q otherwise.
static std::vector<uint64_t> centeredResidues(const BigInt &X,
                                              const CrtBasis &From,
                                              const CrtBasis &To) {
  std::vector<uint64_t> Out;
  for (uint64_t P : To.primes()) {
    uint64_t R = X.modWord(P);
    if (X > From.halfModulus())
      R = subMod(R, From.modulus().modWord(P), P);
    Out.push_back(R);
  }
  return Out;
}

TEST(RnsBaseConversion, ExactConversionNearHalfQ) {
  BfvContext Ctx(rnsParams());
  const CrtBasis &Coeff = Ctx.coeffBasis();
  const CrtBasis &Aux = Ctx.auxBasis();

  // convertExact's alpha carries absolute error up to k ulps of 64-bit
  // fixed point, which scales to a window of ~k * Q / 2^64 (about 2^57
  // here) around Q/2 where centering may land either way. Values outside
  // that window must convert exactly; 2^58 clears it with margin while
  // still sitting close to the boundary relative to the 119-bit range.
  BigInt Offset = BigInt::fromU64(1ull << 58);
  std::vector<BigInt> Cases = {
      BigInt::fromU64(0),
      BigInt::fromU64(1),
      Coeff.halfModulus() - Offset,
      Coeff.halfModulus() + Offset,
      Coeff.modulus() - BigInt::fromU64(1),
  };
  for (const BigInt &X : Cases) {
    std::vector<std::vector<uint64_t>> In;
    for (uint64_t R : Coeff.decompose(X))
      In.push_back({R});
    std::vector<std::vector<uint64_t>> Out;
    Ctx.coeffToAux().convertExact(In, Out);

    auto Expected = centeredResidues(X, Coeff, Aux);
    for (size_t J = 0; J < Aux.count(); ++J)
      EXPECT_EQ(Out[J][0], Expected[J]) << "prime index " << J;
  }

  // Values inside the ambiguity window (including floor(Q/2) itself) may
  // legitimately land on either side of the boundary: the result is X or
  // X - Q, nothing else.
  for (const BigInt &X : {Coeff.halfModulus(),
                          Coeff.halfModulus() - BigInt::fromU64(1024),
                          Coeff.halfModulus() + BigInt::fromU64(1024)}) {
    std::vector<std::vector<uint64_t>> In;
    for (uint64_t R : Coeff.decompose(X))
      In.push_back({R});
    std::vector<std::vector<uint64_t>> Out;
    Ctx.coeffToAux().convertExact(In, Out);
    for (size_t J = 0; J < Aux.count(); ++J) {
      uint64_t P = Aux.primes()[J];
      uint64_t Lo = X.modWord(P);
      uint64_t Hi = subMod(Lo, Coeff.modulus().modWord(P), P);
      EXPECT_TRUE(Out[J][0] == Lo || Out[J][0] == Hi) << "prime index " << J;
    }
  }
}

TEST(RnsBaseConversion, FastConversionIsExactOrOffByQ) {
  // The double-precision alpha estimate may shift a result by exactly Q
  // when the value sits on a rounding knife edge; anywhere else it matches
  // the exact conversion. Verify the promise over random values.
  BfvContext Ctx(rnsParams());
  const CrtBasis &Coeff = Ctx.coeffBasis();
  const CrtBasis &Aux = Ctx.auxBasis();
  uint64_t Seed = testSeed(1);
  SeedReporter Report(Seed);
  Rng R(Seed);

  size_t N = 64;
  std::vector<std::vector<uint64_t>> In;
  for (uint64_t P : Coeff.primes())
    In.push_back(R.vectorBelow(P, N));

  std::vector<std::vector<uint64_t>> Fast, Exact;
  Ctx.coeffToAux().convert(In, Fast);
  Ctx.coeffToAux().convertExact(In, Exact);
  for (size_t J = 0; J < Aux.count(); ++J) {
    uint64_t P = Aux.primes()[J];
    uint64_t QModP = Coeff.modulus().modWord(P);
    for (size_t C = 0; C < N; ++C) {
      uint64_t D = subMod(Fast[J][C], Exact[J][C], P);
      EXPECT_TRUE(D == 0 || D == QModP || D == P - QModP)
          << "prime " << J << " coeff " << C;
    }
  }
}

TEST(RnsBaseConversion, RoundTripThroughAuxBasisIsIdentity) {
  // coeff -> aux -> coeff must reproduce the original residues exactly:
  // the aux modulus dwarfs Q, so the centered representative is preserved.
  BfvContext Ctx(rnsParams());
  uint64_t Seed = testSeed(2);
  SeedReporter Report(Seed);
  Rng R(Seed);

  size_t N = 64;
  std::vector<std::vector<uint64_t>> In;
  for (uint64_t P : Ctx.coeffBasis().primes())
    In.push_back(R.vectorBelow(P, N));

  std::vector<std::vector<uint64_t>> Mid, Back;
  Ctx.coeffToAux().convertExact(In, Mid);
  Ctx.auxToCoeff().convertExact(Mid, Back);
  EXPECT_EQ(Back, In);
}

//===----------------------------------------------------------------------===//
// Galois elements
//===----------------------------------------------------------------------===//

TEST(GaloisElements, SquareAndMultiplyMatchesSerialReference) {
  BfvContext Ctx(rnsParams());
  BatchEncoder Encoder(Ctx);
  uint64_t M = 2 * Ctx.polyDegree();
  size_t Row = Encoder.rowSize();

  // Serial reference: left rotation by s is conjugation by 3^s mod 2N,
  // with negative steps normalized into [0, rowSize).
  auto Serial = [&](int Steps) {
    long Norm = Steps % static_cast<long>(Row);
    if (Norm < 0)
      Norm += static_cast<long>(Row);
    uint64_t E = 1;
    for (long I = 0; I < Norm; ++I)
      E = (E * 3) % M;
    return E;
  };

  std::vector<int> Steps = {0, 1, -1, 2, -2, 7,
                            static_cast<int>(Row) - 1,
                            -static_cast<int>(Row) + 3};
  for (int S : Steps)
    EXPECT_EQ(Encoder.galoisEltForRotation(S), Serial(S)) << "step " << S;

  // Pin the concrete elements for N = 1024 (M = 2048, row = 512) so an
  // encoding change cannot slip past the differential check above.
  EXPECT_EQ(Encoder.galoisEltForRotation(1), 3u);
  EXPECT_EQ(Encoder.galoisEltForRotation(2), 9u);
  EXPECT_EQ(Encoder.galoisEltForRotation(-1), 683u);
  EXPECT_EQ(Encoder.galoisEltForRotation(-2), 1593u);
  EXPECT_EQ(Encoder.galoisEltForRotation(static_cast<int>(Row) - 1), 683u);
}

} // namespace
