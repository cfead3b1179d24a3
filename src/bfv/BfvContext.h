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
  /// Key-switching digit width in bits (trade-off: smaller = less noise per
  /// switch, more NTTs). 48 covers every standard coefficient prime, so the
  /// RNS gadget degenerates to one digit per prime — the classic per-prime
  /// decomposition with digit_i = x mod q_i. Per-switch noise is bounded by
  /// the prime size (~2^45 worst case), which sits far below the
  /// multiplication noise that actually drives the budget; in exchange each
  /// key switch runs one NTT set per prime instead of two or three.
  unsigned DecompWidth = 48;
};

/// Immutable parameter context with derived tables.
class BfvContext {
public:
  explicit BfvContext(const BfvParams &Params);

  /// Builds a context sized for programs with multiplicative depth
  /// \p Depth, using the HE-standard 128-bit-security N/log2(Q) pairs.
  static BfvContext forMultDepth(unsigned Depth);

  /// The parameters forMultDepth(\p Depth) would select, without paying
  /// context construction (CRT bases, NTT tables). Callers that only need
  /// the ring dimension — e.g. the serving tier sizing cross-request
  /// batches by the row width N/2 — stay cheap.
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

  /// Fast base conversions between the coefficient and auxiliary bases
  /// (the RNS multiply hot path).
  const RnsBaseConverter &coeffToAux() const { return CoeffToAux; }
  const RnsBaseConverter &auxToCoeff() const { return AuxToCoeff; }
  /// Conversion from the coefficient basis onto the single-prime basis {t},
  /// used by RNS decryption.
  const RnsBaseConverter &coeffToPlain() const { return CoeffToPlain; }

  /// t mod p_j over the auxiliary primes, with Shoup pairs.
  const std::vector<uint64_t> &plainModAux() const { return TModAux; }
  const std::vector<uint64_t> &plainModAuxShoup() const { return TModAuxShoup; }
  /// Q^-1 mod p_j over the auxiliary primes, with Shoup pairs.
  const std::vector<uint64_t> &invQModAux() const { return InvQModAux; }
  const std::vector<uint64_t> &invQModAuxShoup() const {
    return InvQModAuxShoup;
  }
  /// Shoup pairs for multiplying coefficient-basis residues by t.
  const std::vector<uint64_t> &plainModPrimes() const { return TModPrimes; }
  const std::vector<uint64_t> &plainModPrimesShoup() const {
    return TModPrimesShoup;
  }
  /// Q^-1 mod t.
  uint64_t invQModPlain() const { return InvQModT; }

  /// Total bits in Q; the budget ceiling for noise.
  unsigned coeffModulusBits() const { return CoeffBasis.modulus().bitLength(); }

  /// Maximum log2(Q) allowed for 128-bit security at this N
  /// (HomomorphicEncryption.org standard table); 0 if N is non-standard.
  static unsigned maxSecureCoeffBits(size_t PolyDegree);

private:
  size_t N;
  uint64_t T;
  CrtBasis CoeffBasis;
  std::vector<NttTables> CoeffNtt;
  NttTables PlainNtt;
  CrtBasis AuxBasis;
  std::vector<NttTables> AuxNtt;
  CrtBasis PlainBasis;
  RnsBaseConverter CoeffToAux;
  RnsBaseConverter AuxToCoeff;
  RnsBaseConverter CoeffToPlain;
  BigInt Delta;
  std::vector<uint64_t> DeltaModPrimes;
  std::vector<uint64_t> DeltaModPrimesShoup;
  unsigned Width;
  unsigned Digits;
  std::vector<std::vector<uint64_t>> DigitScales;
  std::vector<RnsGadgetDigit> RnsGadget;
  std::vector<uint64_t> TModAux;
  std::vector<uint64_t> TModAuxShoup;
  std::vector<uint64_t> InvQModAux;
  std::vector<uint64_t> InvQModAuxShoup;
  std::vector<uint64_t> TModPrimes;
  std::vector<uint64_t> TModPrimesShoup;
  uint64_t InvQModT = 0;

  static CrtBasis makeCoeffBasis(const BfvParams &Params);
  static CrtBasis makeAuxBasis(size_t N, const CrtBasis &Coeff);
};

} // namespace porcupine

#endif // PORCUPINE_BFV_BFVCONTEXT_H
