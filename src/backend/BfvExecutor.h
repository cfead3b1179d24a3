//===- backend/BfvExecutor.h - Encrypted Quill execution --------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes Quill programs on real BFV ciphertexts - the role SEAL plays in
/// the paper's toolchain. For implicit-relin programs the executor performs
/// the code-generation post-processing the paper describes: relinearization
/// is inserted after every ciphertext-ciphertext multiply. Explicit-relin
/// programs (Program::ExplicitRelin, produced by the lazy-relin pass)
/// schedule relinearization themselves; multiplies stay raw three-component
/// results until a Relin instruction reduces them (adds, subtracts, ct-pt
/// multiplies, and decryption all tolerate three components). Galois keys
/// for exactly the rotations a program needs are generated up front.
///
/// A run reads its inputs in place through a table of pointers and keeps
/// each value it computes only until its last use, so a program's live set,
/// not its length, sets the memory a call holds; the output is moved out.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_BFVEXECUTOR_H
#define PORCUPINE_BACKEND_BFVEXECUTOR_H

#include "backend/ExecutorBackend.h" // requiredRotations(): the Galois
                                     // keys an executor generates.
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "quill/Interpreter.h"
#include "quill/Program.h"

#include <functional>
#include <vector>

namespace porcupine {

/// Host-side runner: owns keys and the evaluator for one context and a set
/// of programs.
class BfvExecutor {
public:
  /// Creates keys sufficient for every program in \p Programs.
  BfvExecutor(const BfvContext &Ctx, Rng &R,
              const std::vector<const quill::Program *> &Programs);

  /// Encrypts one kernel input vector (width = program VectorSize) into a
  /// ciphertext, placing the data in batching row 0.
  Ciphertext encryptInput(const std::vector<uint64_t> &Values) const;

  /// Called after each instruction with the value it produced; the
  /// Figure 7 style traces decrypt it.
  using InstrHook = std::function<void(const Ciphertext &)>;

  /// Runs \p P over encrypted inputs, read in place, returning the
  /// encrypted result. Every value rotated by a non-identity Galois element
  /// is hoisted once and shared by all of its rotations; the state is freed
  /// after its last. Every computed value is freed after its last use,
  /// except the output; \p AfterInstr still sees each one, in order.
  Ciphertext run(const quill::Program &P,
                 const std::vector<const Ciphertext *> &Inputs,
                 const InstrHook &AfterInstr = nullptr) const;
  /// As above, over inputs held by value.
  Ciphertext run(const quill::Program &P,
                 const std::vector<Ciphertext> &Inputs,
                 const InstrHook &AfterInstr = nullptr) const;

  /// Decrypts a result and returns the first \p Width slots.
  std::vector<uint64_t> decryptOutput(const Ciphertext &Ct,
                                      size_t Width) const;

  /// Remaining invariant noise budget of a ciphertext, in bits.
  double noiseBudget(const Ciphertext &Ct) const;

  /// decryptOutput() and noiseBudget() from one read-out of \p Ct.
  backend::Executor::Decrypted decryptWithBudget(const Ciphertext &Ct,
                                                 size_t Width) const;

  const BfvContext &context() const { return Ctx; }
  const Evaluator &evaluator() const { return Eval; }
  const GaloisKeys &galoisKeys() const { return Galois; }
  const RelinKeys &relinKeys() const { return Relin; }

private:
  /// The key-switching gadget of every key this executor generates.
  static constexpr GadgetKind Gadget = GadgetKind::RnsPerPrime;

  const BfvContext &Ctx;
  KeyGenerator Keygen;
  Evaluator Eval;
  Encryptor Enc;
  Decryptor Dec;
  RelinKeys Relin;
  GaloisKeys Galois;

  /// Encodes a Quill plaintext constant for the full batching vector:
  /// splats broadcast everywhere; vectors occupy row-0 slots [0, size).
  Plaintext encodeConstant(const quill::PlainConstant &C) const;

  Ciphertext execInstr(const quill::Instr &I, bool ExplicitRelin,
                       const std::vector<const Ciphertext *> &Values,
                       const std::vector<Plaintext> &Consts) const;

  /// The first \p Width slots of a decrypted plaintext.
  std::vector<uint64_t> slotsOf(const Plaintext &Plain, size_t Width) const;
};

} // namespace porcupine

#endif // PORCUPINE_BACKEND_BFVEXECUTOR_H
