//===- bfv/Keys.h - BFV key material ----------------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Key types for BFV: the ternary secret key, the RLWE public key,
/// relinearization keys (key-switch from s^2 to s) and Galois keys
/// (key-switch from s(x^e) to s, one per rotation step). Key-switching keys
/// are stored in NTT form, so applying one to a decomposed ciphertext
/// component is a pointwise inner product. Each Galois key also carries its
/// element's NTT-slot permutation, built once at key generation: a rotation
/// permutes the NTT-form digits of a hoisted ciphertext instead of
/// transforming anything (Evaluator::hoist / Evaluator::applyGalois).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_KEYS_H
#define PORCUPINE_BFV_KEYS_H

#include "bfv/RingPoly.h"

#include <cstdint>
#include <map>
#include <vector>

namespace porcupine {

/// Secret key s, a ternary ring element (coefficient form).
struct SecretKey {
  RingPoly S;
};

/// Public key (pk0, pk1) = (-(a*s + e), a).
struct PublicKey {
  RingPoly Pk0;
  RingPoly Pk1;
};

/// Which gadget a key-switching key was generated for. The decomposition of
/// a ciphertext component at switch time must match the gadget the key
/// embeds, so keys carry the tag and the evaluator dispatches on it.
enum class GadgetKind {
  /// Base-2^w digits of the canonical BigInt lift (the original path).
  PowerOfTwo,
  /// Per-RNS-prime residues, each split into base-2^w sub-digits
  /// (BfvContext::rnsGadget()); no wide integers at switch time.
  RnsPerPrime,
};

/// One key-switching key: for each decomposition digit d, the pair
/// (-(a_d*s + e_d) + g_d * s', a_d), both stored in NTT form, where g_d is
/// the d-th gadget constant of \p Kind.
struct KeySwitchKey {
  std::vector<RingPoly> K0;
  std::vector<RingPoly> K1;
  GadgetKind Kind = GadgetKind::RnsPerPrime;

  bool empty() const { return K0.empty(); }
};

/// Relinearization key: key-switch from s^2 to s.
struct RelinKeys {
  KeySwitchKey Key;
};

/// The key for one Galois element: the switch from s(x^elt) back to s,
/// and the automorphism x -> x^elt as a permutation of NTT slots.
struct GaloisKey {
  KeySwitchKey Switch;
  /// Output NTT slot i reads input slot NttPermutation[i]
  /// (nttGaloisPermutation()).
  std::vector<uint32_t> NttPermutation;
};

/// Galois keys, stored per Galois element.
struct GaloisKeys {
  std::map<uint64_t, GaloisKey> Keys;

  bool hasKey(uint64_t Elt) const { return Keys.count(Elt) != 0; }
  const GaloisKey &key(uint64_t Elt) const { return Keys.at(Elt); }
};

} // namespace porcupine

#endif // PORCUPINE_BFV_KEYS_H
