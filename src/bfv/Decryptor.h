//===- bfv/Decryptor.h - BFV decryption and noise metering ------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decryption m = round(t/Q * [c(s)]_Q) mod t, plus the invariant noise
/// budget meter (a la SEAL): the number of bits of headroom left before
/// noise corrupts decryption. The Porcupine cost model penalizes
/// multiplicative depth precisely because of this budget.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_DECRYPTOR_H
#define PORCUPINE_BFV_DECRYPTOR_H

#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"

namespace porcupine {

/// Decrypts ciphertexts and measures their noise.
class Decryptor {
public:
  /// \p UseRnsPath selects the word-residue decryption (the default); pass
  /// false for the wide-integer reference path, kept as a differential
  /// oracle. Both produce identical plaintexts on any decryptable
  /// ciphertext (the ciphertext modulus is odd, so the t/Q rounding has no
  /// ties for the paths to resolve differently).
  Decryptor(const BfvContext &Ctx, SecretKey Sk, bool UseRnsPath = true);

  /// Decrypts \p Ct (any component count) to a plaintext.
  Plaintext decrypt(const Ciphertext &Ct) const;

  /// Returns the invariant noise budget in bits: log2(Q / (2*|v|)) where v
  /// is the scaled noise term. Returns 0 when the ciphertext is no longer
  /// guaranteed to decrypt correctly.
  double invariantNoiseBudget(const Ciphertext &Ct) const;

private:
  const BfvContext &Ctx;
  SecretKey Sk; // s in NTT form.
  bool UseRns;

  /// Evaluates c(s) = c0 + c1*s + c2*s^2 + ... in R_Q by Horner's rule in
  /// NTT form, returning coefficient form. Accepts components in either
  /// domain.
  RingPoly evaluateAtSecret(const Ciphertext &Ct) const;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_DECRYPTOR_H
