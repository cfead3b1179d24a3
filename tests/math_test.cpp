//===- tests/math_test.cpp - Unit tests for the math library --------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/BfvContext.h"
#include "math/BigInt.h"
#include "math/Crt.h"
#include "math/ModArith.h"
#include "math/Ntt.h"
#include "math/Primes.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

using namespace porcupine;

namespace {

//===----------------------------------------------------------------------===//
// Modular arithmetic
//===----------------------------------------------------------------------===//

TEST(ModArith, AddSubNegAgainstInt128Oracle) {
  auto Check = [](uint64_t A, uint64_t B, uint64_t Q) {
    EXPECT_EQ(addMod(A, B, Q),
              static_cast<uint64_t>((static_cast<unsigned __int128>(A) + B) % Q))
        << A << " + " << B << " mod " << Q;
    EXPECT_EQ(subMod(A, B, Q),
              static_cast<uint64_t>(
                  (static_cast<unsigned __int128>(A) + Q - B) % Q))
        << A << " - " << B << " mod " << Q;
    EXPECT_EQ(addMod(A, negMod(A, Q), Q), 0u) << A << " mod " << Q;
  };
  Rng R(1);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    uint64_t Q = R.below(~0ull - 2) + 2;
    Check(R.below(Q), R.below(Q), Q);
  }
  // The boundaries, where a sum A + B would pass 2^64 for the largest
  // moduli: both forms must stay wrap-free for every Q up to 2^64 - 1.
  const uint64_t Moduli[] = {2, 3, (1ull << 62) + 1, (1ull << 63) + 1, ~0ull};
  for (uint64_t Q : Moduli) {
    const uint64_t Operands[] = {0, 1, Q / 2, Q - 1};
    for (uint64_t A : Operands)
      for (uint64_t B : Operands)
        Check(A, B, Q);
  }
}

TEST(ModArith, MulModMatchesInt128) {
  Rng R(2);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    uint64_t Q = R.below(~0ull - 2) + 2;
    uint64_t A = R.below(Q), B = R.below(Q);
    unsigned __int128 Wide = static_cast<unsigned __int128>(A) * B;
    EXPECT_EQ(mulMod(A, B, Q), static_cast<uint64_t>(Wide % Q));
  }
}

TEST(ModArith, PowModSmallCases) {
  EXPECT_EQ(powMod(2, 10, 1000000007ull), 1024u);
  EXPECT_EQ(powMod(3, 0, 97), 1u);
  EXPECT_EQ(powMod(0, 5, 97), 0u);
  EXPECT_EQ(powMod(5, 1, 1), 0u); // Everything is 0 mod 1.
}

TEST(ModArith, PowModFermat) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  uint64_t P = 0xffffffff00000001ull; // Goldilocks prime.
  Rng R(3);
  for (int Trial = 0; Trial < 50; ++Trial) {
    uint64_t A = R.below(P - 1) + 1;
    EXPECT_EQ(powMod(A, P - 1, P), 1u);
  }
}

TEST(ModArith, InvModRoundTrip) {
  Rng R(4);
  uint64_t P = 0xffffffff00000001ull;
  for (int Trial = 0; Trial < 200; ++Trial) {
    uint64_t A = R.below(P - 1) + 1;
    uint64_t Inv = invMod(A, P);
    EXPECT_EQ(mulMod(A, Inv, P), 1u);
  }
}

TEST(ModArith, InvModCompositeModulus) {
  // Inverses exist for units modulo a composite too.
  EXPECT_EQ(mulMod(7, invMod(7, 40), 40), 1u);
  EXPECT_EQ(mulMod(3, invMod(3, 1024), 1024), 1u);
}

TEST(ModArith, CenteredRepresentativeRoundTrip) {
  uint64_t Q = 97;
  for (uint64_t R = 0; R < Q; ++R) {
    int64_t C = toCentered(R, Q);
    EXPECT_GT(C, -static_cast<int64_t>(Q) / 2 - 1);
    EXPECT_LE(C, static_cast<int64_t>(Q) / 2);
    EXPECT_EQ(toResidue(C, Q), R);
  }
}

//===----------------------------------------------------------------------===//
// Random streams
//===----------------------------------------------------------------------===//

/// FNV-1a over the 8 little-endian bytes of each of \p Count draws.
template <typename DrawFn> uint64_t drawDigest(int Count, DrawFn Draw) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (int I = 0; I < Count; ++I) {
    uint64_t V = static_cast<uint64_t>(Draw());
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  return H;
}

TEST(Rng, StreamsMatchRecordedDigests) {
  // Keys and encryptions draw from these streams, so a faster sampler must
  // return the same values in the same order: the golden ciphertext
  // digests depend on it. The bound of below() is the first prime of the
  // 4096/100 rung.
  Rng R(0x5eed);
  EXPECT_EQ(drawDigest(10000, [&] { return R.ternary(); }),
            0xb086d7099f53ea44ull);
  EXPECT_EQ(drawDigest(10000, [&] { return R.centeredError(); }),
            0xdba2bb24e5399bc3ull);
  EXPECT_EQ(drawDigest(10000, [&] { return R.below(1125899906826241ull); }),
            0x490e0d70a4400795ull);
}

//===----------------------------------------------------------------------===//
// Primes
//===----------------------------------------------------------------------===//

TEST(Primes, SmallKnownValues) {
  EXPECT_FALSE(isPrime(0));
  EXPECT_FALSE(isPrime(1));
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_FALSE(isPrime(4));
  EXPECT_TRUE(isPrime(65537));
  EXPECT_FALSE(isPrime(65536));
  EXPECT_TRUE(isPrime(0xffffffff00000001ull));
  // Carmichael numbers must be rejected.
  EXPECT_FALSE(isPrime(561));
  EXPECT_FALSE(isPrime(41041));
  EXPECT_FALSE(isPrime(825265));
}

TEST(Primes, GeneratedNttPrimesHaveRequiredForm) {
  for (unsigned Bits : {20u, 30u, 45u, 50u, 55u}) {
    uint64_t Factor = 2 * 8192;
    uint64_t P = generateNttPrime(Bits, Factor);
    EXPECT_TRUE(isPrime(P));
    EXPECT_EQ((P - 1) % Factor, 0u);
    EXPECT_LT(P, 1ull << Bits);
  }
}

TEST(Primes, GenerateDistinctPrimes) {
  auto Primes = generateNttPrimes(50, 2 * 4096, 4);
  ASSERT_EQ(Primes.size(), 4u);
  for (size_t I = 0; I < Primes.size(); ++I) {
    EXPECT_TRUE(isPrime(Primes[I]));
    for (size_t J = I + 1; J < Primes.size(); ++J)
      EXPECT_NE(Primes[I], Primes[J]);
  }
}

TEST(Primes, PrimitiveRootHasExactOrder) {
  uint64_t TwoN = 2 * 1024;
  uint64_t P = generateNttPrime(40, TwoN);
  uint64_t Psi = findPrimitiveRoot(TwoN, P);
  EXPECT_EQ(powMod(Psi, TwoN / 2, P), P - 1); // Psi^N = -1.
  EXPECT_EQ(powMod(Psi, TwoN, P), 1u);
}

TEST(Primes, MinimalRootIsDeterministicAndPrimitive) {
  uint64_t TwoN = 2 * 256;
  uint64_t P = generateNttPrime(30, TwoN);
  uint64_t A = findMinimalPrimitiveRoot(TwoN, P);
  uint64_t B = findMinimalPrimitiveRoot(TwoN, P);
  EXPECT_EQ(A, B);
  EXPECT_EQ(powMod(A, TwoN / 2, P), P - 1);
}

//===----------------------------------------------------------------------===//
// NTT
//===----------------------------------------------------------------------===//

class NttParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NttParamTest, ForwardInverseRoundTrip) {
  size_t N = GetParam();
  uint64_t P = generateNttPrime(50, 2 * N);
  NttTables Tables(N, P);
  Rng R(5 + N);
  std::vector<uint64_t> Original = R.vectorBelow(P, N);
  std::vector<uint64_t> Values = Original;
  Tables.forwardTransform(Values);
  Tables.inverseTransform(Values);
  EXPECT_EQ(Values, Original);
}

TEST_P(NttParamTest, MultiplyMatchesNaiveNegacyclicConvolution) {
  size_t N = GetParam();
  if (N > 512)
    GTEST_SKIP() << "naive oracle too slow beyond 512";
  uint64_t P = generateNttPrime(50, 2 * N);
  NttTables Tables(N, P);
  Rng R(6 + N);
  std::vector<uint64_t> A = R.vectorBelow(P, N);
  std::vector<uint64_t> B = R.vectorBelow(P, N);
  EXPECT_EQ(Tables.multiply(A, B), naiveNegacyclicMultiply(A, B, P));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttParamTest,
                         ::testing::Values(4, 8, 16, 64, 256, 512, 4096,
                                           8192));

TEST(Ntt, MultiplyByOneIsIdentity) {
  size_t N = 64;
  uint64_t P = generateNttPrime(45, 2 * N);
  NttTables Tables(N, P);
  Rng R(7);
  std::vector<uint64_t> A = R.vectorBelow(P, N);
  std::vector<uint64_t> One(N, 0);
  One[0] = 1;
  EXPECT_EQ(Tables.multiply(A, One), A);
}

TEST(Ntt, MultiplyByXRotatesWithSignFlip) {
  // A(x) * x in Z_P[x]/(x^N+1) shifts coefficients up and negates the
  // wrapped one.
  size_t N = 16;
  uint64_t P = generateNttPrime(45, 2 * N);
  NttTables Tables(N, P);
  Rng R(8);
  std::vector<uint64_t> A = R.vectorBelow(P, N);
  std::vector<uint64_t> X(N, 0);
  X[1] = 1;
  auto Product = Tables.multiply(A, X);
  for (size_t I = 1; I < N; ++I)
    EXPECT_EQ(Product[I], A[I - 1]);
  EXPECT_EQ(Product[0], negMod(A[N - 1], P));
}

TEST(Ntt, BatchingPlainModulusWorks) {
  // t = 65537 must support NTT up to N = 32768; exercise a modest size.
  NttTables Tables(1024, 65537);
  Rng R(9);
  std::vector<uint64_t> A = R.vectorBelow(65537, 1024);
  std::vector<uint64_t> Values = A;
  Tables.forwardTransform(Values);
  Tables.inverseTransform(Values);
  EXPECT_EQ(Values, A);
}

//===----------------------------------------------------------------------===//
// Vector NTT
//===----------------------------------------------------------------------===//

/// Runs both transforms of \p Tables and of the scalar oracle for the same
/// (N, P) on inputs across each transform's lazy domain — [0, 4P) forward,
/// [0, 2P) inverse — plus the constant vectors at 0, P - 1 and the top of
/// that domain, and expects identical outputs.
static void expectMatchesScalar(const NttTables &Tables, Rng &R) {
  size_t N = Tables.size();
  uint64_t P = Tables.modulus();
  ASSERT_TRUE(Tables.vectorized()) << "N=" << N << " P=" << P;
  NttTables Scalar(N, P, /*AllowVector=*/false);
  ASSERT_FALSE(Scalar.vectorized());
  for (bool Forward : {true, false}) {
    uint64_t Domain = (Forward ? 4 : 2) * P;
    const std::vector<uint64_t> Inputs[] = {
        R.vectorBelow(Domain, N), std::vector<uint64_t>(N, 0),
        std::vector<uint64_t>(N, P - 1), std::vector<uint64_t>(N, Domain - 1)};
    for (const auto &In : Inputs) {
      std::vector<uint64_t> Got = In, Want = In;
      if (Forward) {
        Tables.forwardTransform(Got);
        Scalar.forwardTransform(Want);
      } else {
        Tables.inverseTransform(Got);
        Scalar.inverseTransform(Want);
      }
      EXPECT_EQ(Got, Want) << (Forward ? "forward" : "inverse")
                           << " N=" << N << " P=" << P << " input[0]="
                           << In[0];
    }
  }
}

/// Whether this CPU runs the vector path (it does for any P < 2^50 and
/// N >= 16 when it has avx512f, avx512dq and avx512ifma).
static bool hostRunsVectorNtt() {
  return NttTables(16, generateNttPrime(49, 32)).vectorized();
}

/// Calls \p Visit on every table of every standardParams() rung:
/// coefficient, auxiliary and plain.
template <typename VisitFn> static void forEachServingTable(VisitFn Visit) {
  for (const BfvParams &Params : BfvContext::standardParams()) {
    BfvContext Ctx(Params);
    for (const NttTables &Tables : Ctx.coeffNtt())
      Visit(Tables);
    for (const NttTables &Tables : Ctx.auxNtt())
      Visit(Tables);
    Visit(Ctx.plainNtt());
  }
}

TEST(NttVector, MatchesScalarOnEveryServingPrime) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // expectMatchesScalar asserts that each table runs vectorized, so a
  // prime that drifts to 2^50 cannot turn a rung scalar unnoticed.
  Rng R(10);
  forEachServingTable(
      [&](const NttTables &Tables) { expectMatchesScalar(Tables, R); });
}

TEST(NttVector, MatchesScalarAt49BitPrime) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  Rng R(11);
  for (size_t N : {16, 32, 64, 1024})
    expectMatchesScalar(NttTables(N, generateNttPrime(49, 2 * N)), R);
}

TEST(NttVector, AuxiliaryBasisFitsTheVectorPath) {
  // The multiply's auxiliary transforms take the vector path only if every
  // auxiliary prime is below 2^50, and the tensor stays exact only while
  // the auxiliary modulus exceeds 2^8 * N * Q^2 (see makeAuxBasis).
  for (const BfvParams &Params : BfvContext::standardParams()) {
    BfvContext Ctx(Params);
    std::string Rung = std::to_string(Params.PolyDegree) + "/" +
                       std::to_string(Params.coeffModulusBits());
    for (uint64_t P : Ctx.auxBasis().primes())
      EXPECT_LT(P, 1ull << 50) << Rung;
    const BigInt &Q = Ctx.coeffModulus();
    BigInt Bound = (Q * Q).mulWord(Ctx.polyDegree()).shiftLeft(8);
    EXPECT_GT(Ctx.auxBasis().modulus(), Bound) << Rung;
  }
}

//===----------------------------------------------------------------------===//
// Vector pointwise kernels and converters
//===----------------------------------------------------------------------===//

/// N random residues in the top 1/64 of [0, P): their products and sums
/// sit near the top of the lanes' reduction domain, where its quotient
/// estimate falls furthest short.
static std::vector<uint64_t> nearTop(size_t N, uint64_t P, Rng &R) {
  std::vector<uint64_t> V = R.vectorBelow(P / 64, N);
  for (auto &X : V)
    X = P - 1 - X;
  return V;
}

/// Vectors of N reduced residues: random, all 0, all P - 1, near P.
static std::vector<std::vector<uint64_t>> laneInputs(size_t N, uint64_t P,
                                                     Rng &R) {
  return {R.vectorBelow(P, N), std::vector<uint64_t>(N, 0),
          std::vector<uint64_t>(N, P - 1), nearTop(N, P, R)};
}

/// Runs every pointwise kernel of \p Tables and of the scalar oracle for
/// the same (N, P) on every pair of laneInputs(), in place as RingPoly runs
/// them, and expects identical outputs.
static void expectKernelsMatchScalar(const NttTables &Tables, Rng &R) {
  size_t N = Tables.size();
  uint64_t P = Tables.modulus();
  ASSERT_TRUE(Tables.vectorized()) << "N=" << N << " P=" << P;
  NttTables Scalar(N, P, /*AllowVector=*/false);
  auto Inputs = laneInputs(N, P, R);
  for (const auto &X : Inputs) {
    for (const auto &Y : Inputs) {
      using Kernel =
          std::function<void(const NttTables &, std::vector<uint64_t> &)>;
      auto Expect = [&](const char *Name, const std::vector<uint64_t> &Start,
                        const Kernel &Run) {
        std::vector<uint64_t> Got = Start, Want = Start;
        Run(Tables, Got);
        Run(Scalar, Want);
        EXPECT_EQ(Got, Want) << Name << " N=" << N << " P=" << P
                             << " x[0]=" << X[0] << " y[0]=" << Y[0];
      };
      Expect("mul", X, [&](const NttTables &T, std::vector<uint64_t> &O) {
        T.mulPointwise(O.data(), Y.data(), O.data());
      });
      Expect("mul-add", Y, [&](const NttTables &T, std::vector<uint64_t> &O) {
        T.mulAddPointwise(X.data(), X.data(), O.data());
      });
      Expect("mul-scalar", X,
             [&](const NttTables &T, std::vector<uint64_t> &O) {
               T.mulScalar(O.data(), Y[0], O.data());
             });
      Expect("add", X, [&](const NttTables &T, std::vector<uint64_t> &O) {
        T.addPointwise(O.data(), Y.data(), O.data());
      });
      Expect("sub", X, [&](const NttTables &T, std::vector<uint64_t> &O) {
        T.subPointwise(O.data(), Y.data(), O.data());
      });
      Expect("negate", X, [&](const NttTables &T, std::vector<uint64_t> &O) {
        T.negatePointwise(O.data(), O.data());
      });
    }
  }
}

/// Runs the key-switch inner product of \p Tables and of the scalar oracle
/// over \p Digits digits, with and without a Galois permutation and a c0
/// to permute, on random residues, on residues near P and with every
/// operand at P - 1 (the largest unreduced sums), and expects identical
/// accumulators.
static void expectKeySwitchMatchesScalar(const NttTables &Tables,
                                         size_t Digits, Rng &R) {
  size_t N = Tables.size();
  uint64_t P = Tables.modulus();
  ASSERT_TRUE(Tables.vectorized()) << "N=" << N << " P=" << P;
  NttTables Scalar(N, P, /*AllowVector=*/false);
  std::vector<uint32_t> Rotation = nttGaloisPermutation(N, 3);
  std::vector<uint32_t> Swap = nttGaloisPermutation(N, 2 * N - 1);
  for (int Extreme : {0, 1, 2}) {
    auto Vec = [&] {
      return Extreme == 0   ? R.vectorBelow(P, N)
             : Extreme == 1 ? nearTop(N, P, R)
                            : std::vector<uint64_t>(N, P - 1);
    };
    std::vector<std::vector<uint64_t>> X, K0, K1;
    for (size_t D = 0; D < Digits; ++D) {
      X.push_back(Vec());
      K0.push_back(Vec());
      K1.push_back(Vec());
    }
    std::vector<const uint64_t *> XP, K0P, K1P;
    for (size_t D = 0; D < Digits; ++D) {
      XP.push_back(X[D].data());
      K0P.push_back(K0[D].data());
      K1P.push_back(K1[D].data());
    }
    std::vector<uint64_t> C0 = Vec(), Start0 = Vec(), Start1 = Vec();
    const uint32_t *Perms[] = {nullptr, Rotation.data(), Swap.data()};
    const uint64_t *Bases[] = {nullptr, C0.data()};
    for (const uint32_t *Perm : Perms) {
      for (const uint64_t *Base : Bases) {
        std::vector<uint64_t> Got0 = Start0, Got1 = Start1;
        std::vector<uint64_t> Want0 = Start0, Want1 = Start1;
        Tables.keySwitchInnerProduct(Digits, XP.data(), K0P.data(),
                                     K1P.data(), Perm, Base, Got0.data(),
                                     Got1.data());
        Scalar.keySwitchInnerProduct(Digits, XP.data(), K0P.data(),
                                     K1P.data(), Perm, Base, Want0.data(),
                                     Want1.data());
        EXPECT_EQ(Got0, Want0) << "digits=" << Digits << " P=" << P
                               << " extreme=" << Extreme
                               << " permuted=" << (Perm != nullptr)
                               << " c0=" << (Base != nullptr);
        EXPECT_EQ(Got1, Want1) << "digits=" << Digits << " P=" << P
                               << " extreme=" << Extreme
                               << " permuted=" << (Perm != nullptr);
      }
    }
  }
}

TEST(PointwiseVector, MatchesScalarOnEveryServingTable) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  Rng R(12);
  forEachServingTable(
      [&](const NttTables &Tables) { expectKernelsMatchScalar(Tables, R); });
}

TEST(PointwiseVector, KeySwitchMatchesScalarOnEveryServingTable) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // One digit, and five: the most any standardParams() rung switches over.
  Rng R(13);
  forEachServingTable([&](const NttTables &Tables) {
    expectKeySwitchMatchesScalar(Tables, 1, R);
    expectKeySwitchMatchesScalar(Tables, 5, R);
  });
}

TEST(PointwiseVector, KeySwitchReducesManyDigitsInChunks) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // Two 49-bit primes split into 2-bit digits give 50 digits: far more
  // products than one unreduced lane sum holds (three at 49 bits), so the
  // vector inner product reduces in chunks, as the scalar one does past 16
  // products at 62 bits.
  Rng R(14);
  std::vector<uint64_t> Primes;
  for (int I = 0; I < 2; ++I)
    Primes.push_back(generateNttPrime(49, 2048, Primes));
  for (uint64_t P : Primes)
    expectKeySwitchMatchesScalar(NttTables(1024, P), 50, R);
}

TEST(PointwiseVector, MatchesScalarWhereTheQuotientFallsShortest) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // The lanes' quotient estimate falls 2 short only when P sits just above
  // 2^(L-1), mu = floor(2^(51+L) / P) drops at least half a unit, and the
  // value nears 2^(51+L): near-top products at L = 50 and near-top sums of
  // a full chunk of digits at L = 46 (7 and 127 digits) need both
  // conditional subtractions in a fair share of their slots.
  Rng R(17);
  for (unsigned L : {46u, 50u}) {
    auto MuDropsHalf = [L](uint64_t P) {
      return 2 * ((static_cast<unsigned __int128>(1) << (51 + L)) % P) >= P;
    };
    uint64_t P = (1ull << (L - 1)) + 1;
    while (!isPrime(P) || !MuDropsHalf(P))
      P += 2048;
    NttTables Tables(1024, P);
    expectKernelsMatchScalar(Tables, R);
    expectKeySwitchMatchesScalar(Tables, 150, R);
  }
}

/// Residue vectors, over \p Basis, of \p Values (canonical, in [0, M)).
static std::vector<std::vector<uint64_t>>
residuesOf(const CrtBasis &Basis, const std::vector<BigInt> &Values) {
  std::vector<std::vector<uint64_t>> Out(Basis.count());
  for (const BigInt &V : Values) {
    std::vector<uint64_t> Res = Basis.decompose(V);
    for (size_t I = 0; I < Basis.count(); ++I)
      Out[I].push_back(Res[I]);
  }
  return Out;
}

/// M/2 + D for small D of either sign, and D and M - 1 - D, the
/// boundaries of a centered lift's alpha, plus random words.
static std::vector<BigInt> liftBoundaryValues(const BigInt &M, Rng &R) {
  std::vector<BigInt> Values;
  BigInt Half = M.shiftRight(1);
  for (uint64_t D = 0; D < 8; ++D) {
    Values.push_back(Half + BigInt::fromU64(D));
    Values.push_back(Half - BigInt::fromU64(D + 1));
    Values.push_back(BigInt::fromU64(D));
    Values.push_back(M - BigInt::fromU64(D + 1));
  }
  for (int I = 0; I < 29; ++I) {
    BigInt V = BigInt::fromU64(R.next());
    for (unsigned W = 1; W * 64 < M.bitLength(); ++W)
      V = V.shiftLeft(64) + BigInt::fromU64(R.next());
    BigInt Quot, Rem;
    V.divMod(M, Quot, Rem);
    Values.push_back(Rem);
  }
  return Values;
}

TEST(ConverterVector, FastConversionMatchesScalarAtLiftBoundaries) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // 61 values: eight-coefficient steps and a scalar tail of five.
  Rng R(15);
  for (const BfvParams &Params : BfvContext::standardParams()) {
    BfvContext Ctx(Params);
    RnsBaseConverter Scalar(Ctx.coeffBasis(), Ctx.auxBasis(),
                            /*AllowVector=*/false);
    ASSERT_FALSE(Scalar.vectorized());
    ASSERT_TRUE(Ctx.coeffToAux().vectorized());
    auto In = residuesOf(Ctx.coeffBasis(),
                         liftBoundaryValues(Ctx.coeffModulus(), R));
    std::vector<std::vector<uint64_t>> Got, Want;
    Ctx.coeffToAux().convert(In, Got);
    Scalar.convert(In, Want);
    EXPECT_EQ(Got, Want) << "N=" << Params.PolyDegree
                         << " log2 Q=" << Params.coeffModulusBits();
  }
  // Fifteen 49-bit source primes (the most the lanes take) onto 49-bit
  // targets: a target's unreduced sum outgrows the one-step reduction in
  // about a third of the slots, which the serving rungs never do.
  std::vector<uint64_t> Src, Tgt;
  for (int I = 0; I < 15; ++I)
    Src.push_back(generateNttPrime(49, 2048, Src));
  std::vector<uint64_t> Exclude = Src;
  for (int I = 0; I < 3; ++I) {
    Tgt.push_back(generateNttPrime(49, 2048, Exclude));
    Exclude.push_back(Tgt.back());
  }
  CrtBasis SrcBasis(Src), TgtBasis(Tgt);
  RnsBaseConverter Vector(SrcBasis, TgtBasis);
  RnsBaseConverter Scalar(SrcBasis, TgtBasis, /*AllowVector=*/false);
  ASSERT_TRUE(Vector.vectorized());
  auto In = residuesOf(SrcBasis, liftBoundaryValues(SrcBasis.modulus(), R));
  std::vector<std::vector<uint64_t>> Got, Want;
  Vector.convert(In, Got);
  Scalar.convert(In, Want);
  EXPECT_EQ(Got, Want) << "fifteen 49-bit sources";
}

TEST(ConverterVector, ScaleAndRoundMatchesScalarAtRoundingBoundaries) {
  if (!hostRunsVectorNtt())
    GTEST_SKIP() << "no avx512ifma";
  // Tensor coefficients x centered in the auxiliary basis B: at the lift
  // boundaries of B, and where t * x / Q is within a few units of a
  // half-integer, on both signs.
  Rng R(16);
  for (const BfvParams &Params : BfvContext::standardParams()) {
    BfvContext Ctx(Params);
    const BigInt &B = Ctx.auxBasis().modulus();
    const BigInt &Q = Ctx.coeffModulus();
    uint64_t T = Ctx.plainModulus();
    RnsScaleRounder Scalar(Ctx.auxBasis(), Ctx.coeffBasis(), T,
                           /*AllowVector=*/false);
    ASSERT_FALSE(Scalar.vectorized());
    ASSERT_TRUE(Ctx.auxScaleToCoeff().vectorized());
    std::vector<BigInt> Values = liftBoundaryValues(B, R);
    for (int I = 0; I < 24; ++I) {
      // (2m + 1) * Q / 2t for m up to 2^40 stays far below B/2.
      BigInt Quot, Rem;
      Q.mulWord(2 * (R.next() >> 24) + 1).divMod(BigInt::fromU64(2 * T), Quot,
                                                 Rem);
      for (uint64_t D : {0, 1, 2}) {
        BigInt X = Quot + BigInt::fromU64(D);
        Values.push_back(X);
        Values.push_back(B - X);
      }
    }
    auto In = residuesOf(Ctx.auxBasis(), Values);
    std::vector<std::vector<uint64_t>> Got, Want;
    Ctx.auxScaleToCoeff().scaleAndRound(In, Got);
    Scalar.scaleAndRound(In, Want);
    EXPECT_EQ(Got, Want) << "N=" << Params.PolyDegree
                         << " log2 Q=" << Params.coeffModulusBits();
  }
}

//===----------------------------------------------------------------------===//
// BigInt
//===----------------------------------------------------------------------===//

BigInt fromI128(__int128 V) {
  bool Neg = V < 0;
  unsigned __int128 Mag =
      Neg ? -static_cast<unsigned __int128>(V) : static_cast<unsigned __int128>(V);
  BigInt Lo = BigInt::fromU64(static_cast<uint64_t>(Mag));
  BigInt Hi = BigInt::fromU64(static_cast<uint64_t>(Mag >> 64));
  BigInt R = Hi.shiftLeft(64) + Lo;
  return Neg ? -R : R;
}

__int128 randI128(Rng &R) {
  unsigned __int128 Mag =
      (static_cast<unsigned __int128>(R.next()) << 64) | R.next();
  // Keep within +-2^126 so sums/differences stay in range.
  Mag >>= 2;
  return R.next() & 1 ? -static_cast<__int128>(Mag) : static_cast<__int128>(Mag);
}

TEST(BigInt, AddSubMulAgainstInt128Oracle) {
  Rng R(10);
  for (int Trial = 0; Trial < 3000; ++Trial) {
    __int128 A = randI128(R) >> 2, B = randI128(R) >> 2;
    EXPECT_EQ(fromI128(A) + fromI128(B), fromI128(A + B));
    EXPECT_EQ(fromI128(A) - fromI128(B), fromI128(A - B));
    __int128 SmallA = A >> 70, SmallB = B >> 70;
    EXPECT_EQ(fromI128(SmallA) * fromI128(SmallB), fromI128(SmallA * SmallB));
  }
}

TEST(BigInt, CompareOrdering) {
  BigInt MinusTwo = BigInt::fromI64(-2);
  BigInt Zero;
  BigInt Three = BigInt::fromU64(3);
  BigInt Big = BigInt::fromU64(1).shiftLeft(300);
  EXPECT_LT(MinusTwo, Zero);
  EXPECT_LT(Zero, Three);
  EXPECT_LT(Three, Big);
  EXPECT_LT(-Big, MinusTwo);
  EXPECT_EQ(Zero, BigInt::fromI64(0));
}

TEST(BigInt, ZeroHandling) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_TRUE((-Zero).isZero());
  EXPECT_FALSE((-Zero).isNegative());
  EXPECT_EQ(Zero + Zero, Zero);
  EXPECT_EQ(Zero * BigInt::fromU64(123), Zero);
  EXPECT_EQ(Zero.bitLength(), 0u);
}

TEST(BigInt, ShiftRoundTrip) {
  Rng R(11);
  for (int Trial = 0; Trial < 500; ++Trial) {
    BigInt V = fromI128(randI128(R));
    unsigned Shift = static_cast<unsigned>(R.below(180));
    EXPECT_EQ(V.shiftLeft(Shift).shiftRight(Shift), V);
  }
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt::fromU64(1).bitLength(), 1u);
  EXPECT_EQ(BigInt::fromU64(255).bitLength(), 8u);
  EXPECT_EQ(BigInt::fromU64(256).bitLength(), 9u);
  EXPECT_EQ(BigInt::fromU64(1).shiftLeft(200).bitLength(), 201u);
}

TEST(BigInt, Log2Magnitude) {
  EXPECT_NEAR(BigInt::fromU64(1024).log2Magnitude(), 10.0, 1e-9);
  EXPECT_NEAR(BigInt::fromU64(1).shiftLeft(300).log2Magnitude(), 300.0, 1e-6);
  EXPECT_NEAR(BigInt::fromU64(3).log2Magnitude(), 1.58496, 1e-4);
}

TEST(BigInt, DivModReconstructionProperty) {
  Rng R(12);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    // Random wide dividend and narrower divisor.
    BigInt U = fromI128(randI128(R)).shiftLeft(static_cast<unsigned>(R.below(128)));
    BigInt V = fromI128(randI128(R) >> (R.below(100)));
    if (V.isZero())
      continue;
    BigInt Q, Rem;
    U.divMod(V, Q, Rem);
    EXPECT_EQ(Q * V + Rem, U);
    BigInt AbsRem = Rem.isNegative() ? -Rem : Rem;
    BigInt AbsV = V.isNegative() ? -V : V;
    EXPECT_LT(AbsRem, AbsV);
    // Truncated division: remainder sign matches dividend (or is zero).
    if (!Rem.isZero())
      EXPECT_EQ(Rem.isNegative(), U.isNegative());
  }
}

TEST(BigInt, DivModSmallOracle) {
  Rng R(13);
  for (int Trial = 0; Trial < 3000; ++Trial) {
    __int128 A = randI128(R);
    __int128 B = randI128(R) >> (R.below(120));
    if (B == 0)
      continue;
    BigInt Q, Rem;
    fromI128(A).divMod(fromI128(B), Q, Rem);
    EXPECT_EQ(Q, fromI128(A / B));
    EXPECT_EQ(Rem, fromI128(A % B));
  }
}

TEST(BigInt, DivRoundNearest) {
  // round(7/2) = 4 (ties away from zero), round(-7/2) = -4.
  auto Div = [](int64_t A, int64_t B) {
    return BigInt::fromI64(A).divRoundNearest(BigInt::fromI64(B)).toI64();
  };
  EXPECT_EQ(Div(7, 2), 4);
  EXPECT_EQ(Div(-7, 2), -4);
  EXPECT_EQ(Div(7, -2), -4);
  EXPECT_EQ(Div(6, 2), 3);
  EXPECT_EQ(Div(1, 3), 0);
  EXPECT_EQ(Div(2, 3), 1);
  EXPECT_EQ(Div(-2, 3), -1);
  EXPECT_EQ(Div(0, 5), 0);
}

TEST(BigInt, DivRoundNearestWide) {
  Rng R(14);
  for (int Trial = 0; Trial < 500; ++Trial) {
    __int128 A = randI128(R);
    int64_t B = R.range(1, int64_t(1) << 40);
    __int128 Twice = 2 * A;
    __int128 Expect = (Twice >= 0 ? Twice + B : Twice - B) / (2 * static_cast<__int128>(B));
    EXPECT_EQ(fromI128(A).divRoundNearest(BigInt::fromI64(B)), fromI128(Expect));
  }
}

TEST(BigInt, ModWord) {
  Rng R(15);
  for (int Trial = 0; Trial < 1000; ++Trial) {
    __int128 A = randI128(R);
    uint64_t M = R.below((1ull << 50) - 2) + 2;
    __int128 Expect = A % static_cast<__int128>(M);
    if (Expect < 0)
      Expect += M;
    EXPECT_EQ(fromI128(A).modWord(M), static_cast<uint64_t>(Expect));
  }
}

TEST(BigInt, DigitDecompositionRecomposes) {
  Rng R(16);
  for (int Trial = 0; Trial < 300; ++Trial) {
    BigInt V = fromI128(randI128(R));
    if (V.isNegative())
      V = -V;
    unsigned Width = static_cast<unsigned>(R.below(30)) + 4;
    unsigned NumDigits = (V.bitLength() + Width - 1) / Width;
    BigInt Recomposed;
    for (unsigned D = 0; D < NumDigits; ++D)
      Recomposed += BigInt::fromU64(V.digit(D, Width)).shiftLeft(D * Width);
    EXPECT_EQ(Recomposed, V);
  }
}

TEST(BigInt, ToI64Bounds) {
  EXPECT_EQ(BigInt::fromI64(INT64_MIN).toI64(), INT64_MIN);
  EXPECT_EQ(BigInt::fromI64(INT64_MAX).toI64(), INT64_MAX);
  EXPECT_EQ(BigInt::fromI64(-1).toI64(), -1);
}

TEST(BigInt, HexString) {
  EXPECT_EQ(BigInt().toHexString(), "0x0");
  EXPECT_EQ(BigInt::fromU64(0x1f).toHexString(), "0x1f");
  EXPECT_EQ(BigInt::fromI64(-31).toHexString(), "-0x1f");
  EXPECT_EQ(BigInt::fromU64(1).shiftLeft(64).toHexString(),
            "0x10000000000000000");
}

//===----------------------------------------------------------------------===//
// CRT
//===----------------------------------------------------------------------===//

TEST(Crt, RoundTripCanonical) {
  auto Primes = generateNttPrimes(50, 2 * 4096, 3);
  CrtBasis Basis(Primes);
  Rng R(17);
  for (int Trial = 0; Trial < 500; ++Trial) {
    // Random value below Q via random residues.
    std::vector<uint64_t> Residues;
    for (uint64_t P : Primes)
      Residues.push_back(R.below(P));
    BigInt X = Basis.reconstruct(Residues);
    EXPECT_LT(X, Basis.modulus());
    EXPECT_FALSE(X.isNegative());
    EXPECT_EQ(Basis.decompose(X), Residues);
  }
}

TEST(Crt, CenteredRange) {
  auto Primes = generateNttPrimes(30, 2 * 64, 2);
  CrtBasis Basis(Primes);
  Rng R(18);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::vector<uint64_t> Residues;
    for (uint64_t P : Primes)
      Residues.push_back(R.below(P));
    BigInt X = Basis.reconstructCentered(Residues);
    EXPECT_LE(X, Basis.halfModulus());
    EXPECT_LE(-Basis.halfModulus() - BigInt::fromU64(1), X);
    // Centered and canonical agree modulo each prime.
    for (size_t I = 0; I < Primes.size(); ++I)
      EXPECT_EQ(X.modWord(Primes[I]), Residues[I]);
  }
}

TEST(Crt, SmallNegativeValues) {
  CrtBasis Basis({97, 101});
  BigInt MinusOne = BigInt::fromI64(-1);
  auto Residues = Basis.decompose(MinusOne);
  EXPECT_EQ(Residues[0], 96u);
  EXPECT_EQ(Residues[1], 100u);
  EXPECT_EQ(Basis.reconstructCentered(Residues), MinusOne);
}

TEST(Crt, Single63BitPrimeBasis) {
  uint64_t P = generateNttPrime(55, 2 * 8192);
  CrtBasis Basis({P});
  BigInt X = BigInt::fromU64(12345678901234ull);
  EXPECT_EQ(Basis.reconstruct(Basis.decompose(X)), X);
}

TEST(Crt, ReadOutMatchesBigIntDecryptAndMeter) {
  // The read-out pass must return exactly the largest
  // |reconstructCentered(t * x)| over a batch of coefficients, and for
  // each one the message round(t * x / Q) mod t of x's centered lift: at
  // the centered extremes +-(Q-1)/2, at 0, 1 and Q-1, and over random
  // values. Bases: the shapes of the depth-1 and depth-4 serving moduli,
  // the widest primes the ring supports, and a 255-bit Q whose word sums
  // need a limb beyond Q's own four.
  const uint64_t T = 65537;
  std::vector<std::vector<uint64_t>> Bases = {
      generateNttPrimes(36, 2 * 4096, 3),
      generateNttPrimes(44, 2 * 8192, 5),
      generateNttPrimes(62, 2 * 1024, 2),
      generateNttPrimes(51, 2 * 1024, 5),
  };
  Rng R(19);
  for (const auto &Primes : Bases) {
    CrtBasis Basis(Primes);
    RnsReadOut ReadOut(Basis, T);
    const BigInt &Q = Basis.modulus();
    const BigInt &Half = Basis.halfModulus(); // (Q-1)/2: Q is odd.
    BigInt MinusHalf = Q - Half;              // -(Q-1)/2 mod Q.

    // One batch per row: the extremes alone, together, and mixed with
    // random values.
    std::vector<std::vector<BigInt>> Batches = {
        {BigInt()},
        {Half},
        {MinusHalf},
        {BigInt(), Half, MinusHalf, BigInt::fromU64(1), Q - BigInt::fromU64(1)},
    };
    std::vector<BigInt> Random;
    for (int I = 0; I < 64; ++I) {
      std::vector<uint64_t> Res;
      for (uint64_t P : Primes)
        Res.push_back(R.below(P));
      Random.push_back(Basis.reconstruct(Res));
    }
    Batches.push_back(Random);
    Random.push_back(MinusHalf);
    Batches.push_back(Random);

    for (const auto &Batch : Batches) {
      std::vector<std::vector<uint64_t>> Residues(Primes.size());
      BigInt ExpectedMax;
      std::vector<uint64_t> ExpectedMessage;
      for (const BigInt &X : Batch) {
        std::vector<uint64_t> Res = Basis.decompose(X);
        for (size_t I = 0; I < Primes.size(); ++I)
          Residues[I].push_back(Res[I]);
        BigInt Quot, Scaled;
        X.mulWord(T).divMod(Q, Quot, Scaled);
        BigInt C = Basis.reconstructCentered(Basis.decompose(Scaled));
        if (C.isNegative())
          C = -C;
        if (C > ExpectedMax)
          ExpectedMax = C;
        BigInt Centered = Basis.reconstructCentered(Res);
        ExpectedMessage.push_back(
            Centered.mulWord(T).divRoundNearest(Q).modWord(T));
      }
      std::vector<uint64_t> Message(Batch.size());
      EXPECT_EQ(ReadOut.run(Residues, Message.data()), ExpectedMax)
          << Primes.size() << " primes, " << Batch.size() << " values";
      EXPECT_EQ(Message, ExpectedMessage)
          << Primes.size() << " primes, " << Batch.size() << " values";
      // Without a message buffer the pass still meters.
      EXPECT_EQ(ReadOut.run(Residues, nullptr), ExpectedMax);
    }
  }
}

} // namespace

namespace {

/// Division validated by construction: build U = Q*V + R from random parts
/// (R < V), then require divMod to recover Q and R exactly. Covers widths
/// far beyond the __int128 oracle, including the Knuth D add-back path
/// (equal leading digits arise regularly among these patterns).
TEST(BigInt, DivModConstructionStressWide) {
  Rng Rand(41);
  for (int Trial = 0; Trial < 1500; ++Trial) {
    // Random divisor of 1-5 words, top word sometimes forced to the
    // pattern 0x8000.. / 0xffff.. that stresses quotient estimation.
    unsigned VWords = 1 + static_cast<unsigned>(Rand.below(5));
    BigInt V;
    for (unsigned I = 0; I < VWords; ++I)
      V = V.shiftLeft(64) + BigInt::fromU64(Rand.next());
    switch (Rand.below(4)) {
    case 0:
      V = V.shiftRight(V.bitLength() % 64); // Aligned top word.
      break;
    case 1:
      V = V + BigInt::fromU64(1).shiftLeft(VWords * 64 - 1); // Top bit set.
      break;
    default:
      break;
    }
    if (V.isZero())
      continue;

    unsigned QWords = 1 + static_cast<unsigned>(Rand.below(4));
    BigInt Q;
    for (unsigned I = 0; I < QWords; ++I)
      Q = Q.shiftLeft(64) + BigInt::fromU64(Rand.next());

    // Remainder strictly below |V|.
    BigInt R;
    BigInt Quot;
    BigInt VAbs = V;
    BigInt Raw;
    for (unsigned I = 0; I < VWords; ++I)
      Raw = Raw.shiftLeft(64) + BigInt::fromU64(Rand.next());
    Raw.divMod(VAbs, Quot, R);

    BigInt U = Q * V + R;
    BigInt GotQ, GotR;
    U.divMod(V, GotQ, GotR);
    ASSERT_EQ(GotQ, Q) << "trial " << Trial;
    ASSERT_EQ(GotR, R) << "trial " << Trial;
  }
}

/// Explicit add-back trigger (Knuth's classic worst case shape): dividend
/// with a long run of ones against a divisor just above a power of two.
TEST(BigInt, DivModAddBackShapes) {
  // U = 2^192 - 1, V = 2^64 + 3: quotient estimation overshoots without
  // the correction step.
  BigInt U = BigInt::fromU64(1).shiftLeft(192) - BigInt::fromU64(1);
  BigInt V = BigInt::fromU64(1).shiftLeft(64) + BigInt::fromU64(3);
  BigInt Q, R;
  U.divMod(V, Q, R);
  EXPECT_EQ(Q * V + R, U);
  EXPECT_LT(R, V);

  // Equal leading words.
  BigInt U2 = BigInt::fromU64(0x8000000000000000ull).shiftLeft(128);
  BigInt V2 = BigInt::fromU64(0x8000000000000000ull).shiftLeft(64) +
              BigInt::fromU64(1);
  U2.divMod(V2, Q, R);
  EXPECT_EQ(Q * V2 + R, U2);
  EXPECT_LT(R, V2);
}

/// mulWord against repeated addition on random values.
TEST(BigInt, MulWordAgainstRepeatedAddition) {
  Rng Rand(43);
  for (int Trial = 0; Trial < 200; ++Trial) {
    BigInt V = BigInt::fromU64(Rand.next()).shiftLeft(
        static_cast<unsigned>(Rand.below(128)));
    uint64_t W = Rand.below(50);
    BigInt Sum;
    for (uint64_t I = 0; I < W; ++I)
      Sum += V;
    EXPECT_EQ(V.mulWord(W), Sum);
  }
}

//===----------------------------------------------------------------------===//
// Precomputed-constant reduction (the NTT / base-conversion hot paths)
//===----------------------------------------------------------------------===//

/// A random odd modulus below 2^62 (the headroom both Barrett and Shoup
/// reduction require).
static uint64_t randomOddModulus(Rng &R) {
  return (R.below((1ull << 62) - 3) + 3) | 1;
}

TEST(ModArith, BarrettReducerMatchesInt128) {
  Rng R(44);
  for (int Trial = 0; Trial < 500; ++Trial) {
    uint64_t P = randomOddModulus(R);
    BarrettReducer Red(P);
    // Any 128-bit value must reduce correctly, including the extremes.
    unsigned __int128 Z =
        (static_cast<unsigned __int128>(R.next()) << 64) | R.next();
    EXPECT_EQ(Red.reduce(Z), static_cast<uint64_t>(Z % P));
    EXPECT_EQ(Red.reduce(0), 0u);
    EXPECT_EQ(Red.reduce(static_cast<unsigned __int128>(-1)),
              static_cast<uint64_t>(static_cast<unsigned __int128>(-1) % P));

    uint64_t A = R.below(P), B = R.below(P);
    EXPECT_EQ(Red.mulMod(A, B),
              static_cast<uint64_t>(static_cast<unsigned __int128>(A) * B % P));
  }
}

TEST(ModArith, ShoupMulMatchesInt128) {
  Rng R(45);
  for (int Trial = 0; Trial < 500; ++Trial) {
    uint64_t P = randomOddModulus(R);
    uint64_t W = R.below(P);
    uint64_t WShoup = shoupPrecompute(W, P);
    // Shoup reduction is correct for an arbitrary 64-bit other operand.
    uint64_t X = R.next();
    unsigned __int128 Wide = static_cast<unsigned __int128>(X) * W;
    EXPECT_EQ(mulModShoup(X, W, WShoup, P), static_cast<uint64_t>(Wide % P));

    // The lazy variant skips the final correction: congruent mod P and
    // strictly below 2P.
    uint64_t Lazy = mulModShoupLazy(X, W, WShoup, P);
    EXPECT_LT(Lazy, 2 * P);
    EXPECT_EQ(Lazy % P, static_cast<uint64_t>(Wide % P));
  }
}

TEST(Crt, FastBaseConversionMatchesBigIntReference) {
  // Convert residues of random values between two unrelated NTT-prime
  // bases and compare against exact BigInt centering. Values are kept away
  // from Q/2 (top bit of the range clear) so the double-precision alpha
  // estimate of convert() cannot legitimately differ either.
  std::vector<uint64_t> SrcPrimes, TgtPrimes;
  for (int I = 0; I < 3; ++I)
    SrcPrimes.push_back(generateNttPrime(40, 2048, SrcPrimes));
  std::vector<uint64_t> Exclude = SrcPrimes;
  for (int I = 0; I < 2; ++I) {
    TgtPrimes.push_back(generateNttPrime(50, 2048, Exclude));
    Exclude.push_back(TgtPrimes.back());
  }
  CrtBasis Src(SrcPrimes), Tgt(TgtPrimes);
  RnsBaseConverter Conv(Src, Tgt);

  Rng R(46);
  size_t N = 128;
  std::vector<BigInt> Values;
  std::vector<std::vector<uint64_t>> In(SrcPrimes.size());
  for (auto &V : In)
    V.resize(N);
  for (size_t C = 0; C < N; ++C) {
    // ~117-bit modulus; build a value below 2^110 << Q/2.
    BigInt X = (BigInt::fromU64(R.next()).shiftLeft(46) +
                BigInt::fromU64(R.next())) ;
    auto Res = Src.decompose(X);
    for (size_t I = 0; I < SrcPrimes.size(); ++I)
      In[I][C] = Res[I];
    Values.push_back(std::move(X));
  }

  std::vector<std::vector<uint64_t>> Fast;
  Conv.convert(In, Fast);
  for (size_t C = 0; C < N; ++C) {
    auto Expected = Tgt.decompose(Values[C]);
    for (size_t J = 0; J < TgtPrimes.size(); ++J)
      EXPECT_EQ(Fast[J][C], Expected[J]) << "coeff " << C << " prime " << J;
  }
}

} // namespace
