//===- bfv/Evaluator.h - Homomorphic operations -----------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The homomorphic instruction set Porcupine targets (Table 1 of the paper):
/// SIMD add/sub/multiply over ciphertext-ciphertext and ciphertext-plaintext
/// operands, slot rotation, plus relinearization. The method surface mirrors
/// SEAL's Evaluator so generated kernels read like SEAL programs.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_EVALUATOR_H
#define PORCUPINE_BFV_EVALUATOR_H

#include "bfv/BatchEncoder.h"
#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"

#include <memory>
#include <mutex>
#include <unordered_map>

namespace porcupine {

/// A ciphertext prepared for rotation (Halevi-Shoup hoisting): c0 and the
/// gadget digits of c1, all in NTT form. Decomposing c1 is the expensive
/// half of a rotation; every Galois element then only permutes this state
/// and takes an inner product with its key, so one hoisted ciphertext
/// serves any number of rotations of the same value.
struct HoistedCiphertext {
  RingPoly C0;
  std::vector<RingPoly> Digits;
  /// The gadget the digits decompose over; must match the Galois keys'.
  GadgetKind Kind = GadgetKind::RnsPerPrime;
};

/// Homomorphic operator suite. Stateless except for the context and a
/// bounded cache of NTT-form plaintexts (so kernels that multiply by the
/// same constants every call pay the plaintext NTT once).
///
/// The hot paths (ciphertext multiply, key switching) run RNS-native by
/// default: every per-coefficient step works on 64-bit residues, with fast
/// base conversion in place of CRT lifts. The evaluator holds no
/// per-coefficient loops of its own: the multiply's tensor and the
/// key-switch inner product are NttTables kernels of the auxiliary and
/// coefficient primes, and the conversions are the context's converters,
/// all of which run on IFMA52 lanes where the CPU has them. Passing
/// UseRnsHotPath = false selects the original wide-integer multiply, kept
/// alive as a differential-testing oracle; the two return identical
/// residues.
///
/// Ciphertexts may be in either coefficient or NTT form (all components of
/// one ciphertext always share a form). Operations that are cheap in
/// evaluation form (add/sub, plaintext multiply) keep or move results
/// toward NTT form so chains of them skip transforms. Rotation is two
/// steps: hoist() decomposes once, applyGalois() permutes the NTT-form
/// state for one Galois element and returns its result in NTT form.
/// Ciphertext multiply returns coefficient form; relinearize keeps its
/// input's form.
class Evaluator {
public:
  explicit Evaluator(const BfvContext &Ctx, bool UseRnsHotPath = true)
      : Ctx(Ctx), Encoder(Ctx), UseRns(UseRnsHotPath) {}

  /// Whether the RNS hot path (vs the BigInt oracle) is active.
  bool usesRnsHotPath() const { return UseRns; }

  /// Slot-wise ciphertext addition; operands may have 2 or 3 components.
  Ciphertext add(const Ciphertext &A, const Ciphertext &B) const;

  /// Slot-wise ciphertext subtraction.
  Ciphertext sub(const Ciphertext &A, const Ciphertext &B) const;

  /// Negation.
  Ciphertext negate(const Ciphertext &A) const;

  /// Ciphertext + plaintext.
  Ciphertext addPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Ciphertext - plaintext.
  Ciphertext subPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Slot-wise ciphertext multiplication; the result has three components,
  /// in coefficient form, until relinearize() is applied. Operands must be
  /// two-component. The RNS path extends both operands into the auxiliary
  /// basis, tensors there in NTT form and scales by t/Q in one pass
  /// straight onto the coefficient primes. Passing the same object twice
  /// squares: its components are extended and transformed once.
  Ciphertext multiply(const Ciphertext &A, const Ciphertext &B) const;

  /// Ciphertext * plaintext (no component growth, milder noise).
  Ciphertext multiplyPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Switches a three-component product back to two components, keeping
  /// the input's form.
  Ciphertext relinearize(const Ciphertext &A, const RelinKeys &Keys) const;

  /// Rotates every batching row \p Steps slots to the left (negative =
  /// right): hoist() followed by applyGalois(). Requires the matching
  /// Galois key; the result is in NTT form unless the rotation is the
  /// identity.
  Ciphertext rotateRows(const Ciphertext &A, int Steps,
                        const GaloisKeys &Keys) const;

  /// Swaps the two batching rows.
  Ciphertext rotateColumns(const Ciphertext &A, const GaloisKeys &Keys) const;

  /// Rotation step 1: puts c0 in NTT form and decomposes c1 into \p Kind's
  /// gadget digits, each in NTT form. \p A must have two components.
  HoistedCiphertext hoist(const Ciphertext &A, GadgetKind Kind) const;

  /// Rotation step 2: applies x -> x^Elt to the hoisted state by permuting
  /// NTT slots, then switches back to the base secret with \p Keys' key
  /// for \p Elt. The result is in NTT form.
  Ciphertext applyGalois(const HoistedCiphertext &H, uint64_t Elt,
                         const GaloisKeys &Keys) const;

  const BatchEncoder &encoder() const { return Encoder; }

private:
  const BfvContext &Ctx;
  BatchEncoder Encoder;
  bool UseRns;

  struct PlainCacheEntry {
    std::vector<uint64_t> Coeffs;
    std::shared_ptr<const RingPoly> NttForm;
  };
  mutable std::mutex PlainCacheMutex;
  mutable std::unordered_map<uint64_t, PlainCacheEntry> PlainCache;

  /// Gadget decomposition of \p P for \p Kind: one NTT-form digit
  /// polynomial per gadget digit, in the order the keys store them.
  std::vector<RingPoly> decompose(const RingPoly &P, GadgetKind Kind) const;

  /// hoist() + applyGalois() for one non-identity Galois element.
  Ciphertext rotate(const Ciphertext &A, uint64_t Elt,
                    const GaloisKeys &Keys) const;

  /// Key-switch inner product in NTT form, per prime through
  /// NttTables::keySwitchInnerProduct: Acc0 += sum_d D_d * K0_d and
  /// Acc1 += sum_d D_d * K1_d, where D_d is Digits[d] with output slot j
  /// read from slot Perm[j] (Perm null: the digits as they are). A
  /// non-null \p C0 replaces Acc0's starting value with C0 read through
  /// the same permutation.
  void keySwitchAccumulate(const std::vector<RingPoly> &Digits,
                           const KeySwitchKey &Key, const uint32_t *Perm,
                           const RingPoly *C0, RingPoly &Acc0,
                           RingPoly &Acc1) const;

  /// The two tensor-and-round implementations behind multiply().
  Ciphertext multiplyRns(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext multiplyBigInt(const Ciphertext &A, const Ciphertext &B) const;

  /// Exact negacyclic convolution of two R_Q elements over the integers
  /// (centered lifts), returned as wide-integer coefficients.
  std::vector<BigInt> exactConvolution(const RingPoly &A,
                                       const RingPoly &B) const;

  /// Embeds a centered plaintext polynomial into RNS form.
  RingPoly plainToRing(const Plaintext &P) const;

  /// NTT form of plainToRing(P), served from the bounded cache.
  std::shared_ptr<const RingPoly> plainNttForm(const Plaintext &P) const;

  /// Delta * P embedded in RNS form (the addPlain/subPlain addend).
  RingPoly deltaScaledPlain(const Plaintext &P) const;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_EVALUATOR_H
