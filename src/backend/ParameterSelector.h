//===- backend/ParameterSelector.h - Program-driven parameters --*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automatic BFV parameter selection from compiled programs - the
/// "parameter tuning" step the paper cites as prior work ([3, 11, 13, 14])
/// and assumes around its compiler. It walks BfvContext::standardParams(),
/// cheapest rung first, and prices each rung with the static noise bound
/// of quill/Noise.h as the chosen backend builds it; the first rung on
/// which every program fits the batching row (N/2 slots) and keeps
/// NoiseGuardBits + NoiseMarginBits of predicted budget wins.
///
/// This is the only place programs are mapped to parameters: the compiler
/// reports its result, and every execution backend builds exactly the
/// parameters handed to it in backend::SessionSpec::Params.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_PARAMETERSELECTOR_H
#define PORCUPINE_BACKEND_PARAMETERSELECTOR_H

#include "backend/ExecutorBackend.h"
#include "bfv/BfvContext.h"
#include "quill/Program.h"

#include <cstdint>
#include <vector>

namespace porcupine {

/// The runtime noise guard: driver::Runtime::execute refuses a result
/// whose measured budget is below this many bits.
constexpr double NoiseGuardBits = 1.0;

/// How far above the guard a rung's predicted budget must stay for
/// selectParameters() to certify it.
constexpr double NoiseMarginBits = 2.0;

/// What selectParameters() decides for a program set.
struct ParameterSelection {
  /// The parameters to build: a standardParams() rung carrying the
  /// session's plaintext modulus.
  BfvParams Params;
  /// The smallest predicted final noise budget over the programs at
  /// Params, in bits.
  double PredictedBudgetBits = 0.0;
  /// False when no rung certifies every program: Params is then the top
  /// rung, and the runtime guard decides whether a result is usable (a
  /// program wider than its row does not run at all).
  bool Certified = false;
};

/// The parameters a session running every program in \p Programs on
/// \p Backend under plaintext modulus \p PlainModulus needs: the cheapest
/// standardParams() rung that is wide enough and that the noise bound
/// certifies, else the top rung. No context is built.
ParameterSelection
selectParameters(const std::vector<const quill::Program *> &Programs,
                 const backend::ExecutorBackend &Backend,
                 uint64_t PlainModulus);

} // namespace porcupine

#endif // PORCUPINE_BACKEND_PARAMETERSELECTOR_H
