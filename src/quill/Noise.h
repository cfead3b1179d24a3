//===- quill/Noise.h - Static noise bound for Quill programs ----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static bound on the invariant noise of every value of a Quill program
/// under BFV, the noise-growth challenge the paper leaves to parameter
/// tuning. The bound tracks, per value, a bound nu on ||[t * c(s)]_Q||_inf,
/// the numerator the runtime noise meter reads, and predicts the budget
/// that meter would show: log2(Q) - log2(nu) - 1.
///
/// It is priced from plain numbers describing how a backend builds one
/// parameter set (NoiseParams), so it needs no BFV context. Each random
/// term is a sum of independent draws bounded by six standard deviations,
/// the same heuristic-worst-case style as the BFV noise models EVA and
/// HEIR select parameters with.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_NOISE_H
#define PORCUPINE_QUILL_NOISE_H

#include "quill/Program.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace porcupine {
namespace quill {

/// How a backend builds one BFV parameter set, in the terms the bound
/// prices.
struct NoiseParams {
  /// Ring degree N.
  size_t PolyDegree = 4096;
  /// Plaintext modulus t.
  uint64_t PlainModulus = 65537;
  /// log2 of each coefficient prime. With SpecialPrime, the last one is
  /// the key-switching special prime and ciphertexts live modulo the rest.
  std::vector<double> PrimeBits;
  /// Key-switch digit width: a prime q_i splits into ceil(log2 q_i /
  /// DigitBits) gadget digits, each below min(q_i, 2^DigitBits).
  unsigned DigitBits = 48;
  /// Key switching goes through a special prime (SEAL's): its gadget
  /// noise is divided by that prime, and the division rounds.
  bool SpecialPrime = false;
};

/// The predicted noise budget, in bits, of every value of \p P (indexed by
/// value id, inputs first) on a fresh encryption of each input: never more
/// than the budget the runtime meter reads, and 0 where the bound can no
/// longer guarantee a correct decryption.
std::vector<double> predictNoiseBudgets(const Program &P,
                                        const NoiseParams &Params);

/// The predicted budget of \p P's output value.
double predictNoiseBudget(const Program &P, const NoiseParams &Params);

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_NOISE_H
