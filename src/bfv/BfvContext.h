//===- bfv/BfvContext.h - BFV parameter context -----------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encryption parameters and precomputed tables for the BFV scheme
/// (Fan-Vercauteren 2012), playing the role of SEAL's SEALContext. A context
/// fixes the ring Z_Q[x]/(x^N + 1), the plaintext modulus t, and every table
/// derived from them: the RNS basis for Q, per-prime NTTs, the auxiliary
/// basis for exact tensor products, and key-switching decomposition
/// constants.
///
/// All other BFV objects (keys, ciphertexts, the evaluator) borrow a const
/// reference to the context; the caller keeps it alive, mirroring SEAL's
/// usage pattern.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_BFVCONTEXT_H
#define PORCUPINE_BFV_BFVCONTEXT_H

#include "math/BigInt.h"
#include "math/Crt.h"
#include "math/Ntt.h"

#include <cstdint>
#include <numeric>
#include <vector>

namespace porcupine {

/// User-facing knobs for a BFV instantiation.
struct BfvParams {
  /// Ring degree N; must be a power of two. Batching packs N slots arranged
  /// as a 2 x (N/2) matrix; kernels use row 0, so the usable vector length
  /// is N/2.
  size_t PolyDegree = 4096;
  /// Plaintext modulus t; must be prime with t = 1 mod 2N for batching.
  uint64_t PlainModulus = 65537;
  /// Bit sizes of the RNS primes whose product is the ciphertext modulus Q.
  std::vector<unsigned> CoeffPrimeBits = {45, 45, 45};
  /// log2(Q) these primes are drawn for: the sum of CoeffPrimeBits.
  unsigned coeffModulusBits() const {
    return std::accumulate(CoeffPrimeBits.begin(), CoeffPrimeBits.end(), 0u);
  }
  /// Key-switching digit width in bits (trade-off: smaller = less noise per
  /// switch, more NTTs). A prime of at most this many bits is one gadget
  /// digit, digit_i = x mod q_i, the classic per-prime decomposition; 48
  /// covers the 36- to 44-bit primes, and the 50-bit rung of
  /// standardParams() widens it to 50. Per-switch noise grows with the
  /// digit size: at N=4096 with 36- and 37-bit primes a rotation spends
  /// about 30 bits of budget, more than a raw ct-ct multiply (about 28).
  /// In exchange each key switch runs one NTT set per prime instead of two
  /// or three.
  unsigned DecompWidth = 48;
};

/// Immutable parameter context with derived tables.
class BfvContext {
public:
  explicit BfvContext(const BfvParams &Params);

  /// The parameter table, cheapest rung first, every rung within the
  /// HE-standard 128-bit-security bound: N=4096 with two 50-bit primes
  /// (one gadget digit each) and with 109 bits, then N=8192 with 175 and
  /// 218 bits. selectParameters() walks it with the static noise bound.
  static const std::vector<BfvParams> &standardParams();

  /// The coefficient primes a context built from \p Params draws.
  static std::vector<uint64_t> coeffPrimes(const BfvParams &Params);

  /// A context on the standardParams() rung paramsForMultDepth(\p Depth)
  /// names.
  static BfvContext forMultDepth(unsigned Depth);

  /// A by-depth lookup into standardParams() for benches and tests that
  /// want "a shallow ring" or "a deep ring": depth 0-1 is 4096/109, 2-3 is
  /// 8192/175, deeper is 8192/218. Parameter selection does not use it.
  static BfvParams paramsForMultDepth(unsigned Depth);

  size_t polyDegree() const { return N; }
  /// Usable SIMD vector length (one batching row).
  size_t slotCount() const { return N / 2; }
  uint64_t plainModulus() const { return T; }

  const CrtBasis &coeffBasis() const { return CoeffBasis; }
  const std::vector<NttTables> &coeffNtt() const { return CoeffNtt; }
  const NttTables &plainNtt() const { return PlainNtt; }
  const CrtBasis &auxBasis() const { return AuxBasis; }
  const std::vector<NttTables> &auxNtt() const { return AuxNtt; }

  /// Q as a wide integer.
  const BigInt &coeffModulus() const { return CoeffBasis.modulus(); }

  /// floor(Q / t), the plaintext scaling factor Delta.
  const BigInt &delta() const { return Delta; }
  /// Delta mod q_i for each coefficient prime, with Shoup pairs.
  const std::vector<uint64_t> &deltaModPrimes() const {
    return DeltaModPrimes;
  }
  const std::vector<uint64_t> &deltaModPrimesShoup() const {
    return DeltaModPrimesShoup;
  }

  unsigned decompWidth() const { return Width; }
  unsigned decompDigitCount() const { return Digits; }
  /// (2^(d * width)) mod q_i for digit d and prime i, indexed [d][i].
  /// Gadget of the BigInt key-switch path (canonical-lift base-2^w digits).
  const std::vector<std::vector<uint64_t>> &digitScaleModPrimes() const {
    return DigitScales;
  }

  /// One digit of the RNS key-switch gadget: residue x_i of source prime i,
  /// shifted right by Shift and masked to decompWidth() bits, keyed against
  /// the gadget constant 2^Shift * (Q/q_i) * [(Q/q_i)^-1]_{q_i} mod Q
  /// (stored as residues over the coefficient primes).
  struct RnsGadgetDigit {
    size_t SourcePrime;
    unsigned Shift;
    std::vector<uint64_t> ScaleModPrimes;
  };
  /// The full RNS gadget: per-prime residues split into base-2^w sub-digits,
  /// so digit magnitude (and thus key-switch noise) matches the BigInt path
  /// while decomposition needs no wide integers.
  const std::vector<RnsGadgetDigit> &rnsGadget() const { return RnsGadget; }

  /// The RNS multiply's two basis changes: the fast conversion that extends
  /// operands from the coefficient basis into the auxiliary one, and the
  /// one-pass scale-and-round that takes a tensor component from the
  /// auxiliary basis straight to round(t * e / Q) over the coefficient
  /// primes.
  const RnsBaseConverter &coeffToAux() const { return CoeffToAux; }
  const RnsScaleRounder &auxScaleToCoeff() const { return AuxScaleToCoeff; }
  /// Decryption's read-out of c(s) over the coefficient basis: the message
  /// mod t and the noise meter's numerator in one pass.
  const RnsReadOut &readOut() const { return ReadOut; }

  /// Total bits in Q; the budget ceiling for noise.
  unsigned coeffModulusBits() const { return CoeffBasis.modulus().bitLength(); }

  /// Maximum log2(Q) allowed for 128-bit security at this N
  /// (HomomorphicEncryption.org standard table); 0 if N is non-standard.
  static unsigned maxSecureCoeffBits(size_t PolyDegree);

  /// Contexts constructed so far in this process; tests count them to
  /// check that sessions on one parameter set share one context.
  static uint64_t instancesCreated();

private:
  size_t N;
  uint64_t T;
  CrtBasis CoeffBasis;
  std::vector<NttTables> CoeffNtt;
  NttTables PlainNtt;
  CrtBasis AuxBasis;
  std::vector<NttTables> AuxNtt;
  RnsBaseConverter CoeffToAux;
  RnsScaleRounder AuxScaleToCoeff;
  RnsReadOut ReadOut;
  BigInt Delta;
  std::vector<uint64_t> DeltaModPrimes;
  std::vector<uint64_t> DeltaModPrimesShoup;
  unsigned Width;
  unsigned Digits;
  std::vector<std::vector<uint64_t>> DigitScales;
  std::vector<RnsGadgetDigit> RnsGadget;

  static CrtBasis makeCoeffBasis(const BfvParams &Params);
  static CrtBasis makeAuxBasis(size_t N, const CrtBasis &Coeff);
};

} // namespace porcupine

#endif // PORCUPINE_BFV_BFVCONTEXT_H
