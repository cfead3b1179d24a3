//===- bfv/Encryptor.h - BFV encryption -------------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public-key BFV encryption: ct = (pk0*u + e1 + Delta*m, pk1*u + e2) for
/// ternary u and small errors e1, e2.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_ENCRYPTOR_H
#define PORCUPINE_BFV_ENCRYPTOR_H

#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"
#include "support/Random.h"

namespace porcupine {

/// Encrypts plaintexts under a public key, held in NTT form so each
/// encryption transforms only its fresh randomness u.
class Encryptor {
public:
  Encryptor(const BfvContext &Ctx, PublicKey Pk, Rng &R);

  /// Encrypts \p Plain into a fresh two-component ciphertext.
  Ciphertext encrypt(const Plaintext &Plain) const;

  /// Encrypts the all-zero plaintext (useful for tests and padding).
  Ciphertext encryptZero() const;

private:
  const BfvContext &Ctx;
  PublicKey Pk; // Both components in NTT form.
  Rng &R;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_ENCRYPTOR_H
