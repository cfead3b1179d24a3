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
/// Both read the same thing: the remainder r of t * c(s) mod Q, whose
/// quotient is the message and whose size is the noise. So the RNS path
/// evaluates c(s) once and makes one pass over its coefficients
/// (RnsReadOut) for both; decrypt() and invariantNoiseBudget() are views
/// of that pass, and decryptWithBudget() returns both from one.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_DECRYPTOR_H
#define PORCUPINE_BFV_DECRYPTOR_H

#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"

namespace porcupine {

/// A decrypted plaintext and the noise budget its ciphertext had left.
struct Decryption {
  Plaintext Plain;
  double NoiseBudget = 0.0;
};

/// Decrypts ciphertexts and measures their noise.
class Decryptor {
public:
  /// \p UseRnsPath selects the word-residue decryption and noise meter
  /// (the default); pass false for the wide-integer reference paths, kept
  /// as differential oracles. Both produce identical plaintexts on every
  /// ciphertext (the ciphertext modulus is odd, so the t/Q rounding has no
  /// ties for the paths to resolve differently) and identical noise
  /// budgets on every ciphertext.
  Decryptor(const BfvContext &Ctx, SecretKey Sk, bool UseRnsPath = true);

  /// Decrypts \p Ct (any component count) to a plaintext.
  Plaintext decrypt(const Ciphertext &Ct) const;

  /// Returns the invariant noise budget in bits: log2(Q / (2*|v|)) where v
  /// is the scaled noise term. Returns 0 when the ciphertext is no longer
  /// guaranteed to decrypt correctly. The RNS path finds the largest noise
  /// numerator by composing residues in machine words; only that maximum
  /// becomes a wide integer, so both paths return the same double.
  double invariantNoiseBudget(const Ciphertext &Ct) const;

  /// decrypt() and invariantNoiseBudget() of \p Ct from one evaluation of
  /// c(s) and, on the RNS path, one read-out pass.
  Decryption decryptWithBudget(const Ciphertext &Ct) const;

private:
  const BfvContext &Ctx;
  SecretKey Sk; // s in NTT form.
  bool UseRns;

  /// Evaluates c(s) = c0 + c1*s + c2*s^2 + ... in R_Q by Horner's rule in
  /// NTT form, returning coefficient form. Accepts components in either
  /// domain; a coefficient-form c0 is added after the inverse transform.
  RingPoly evaluateAtSecret(const Ciphertext &Ct) const;

  /// The noise budget of \p Ct, and its plaintext into \p Plain when that
  /// is not null.
  double readOut(const Ciphertext &Ct, Plaintext *Plain) const;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_DECRYPTOR_H
