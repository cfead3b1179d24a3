//===- backend/ParameterSelector.h - Program-driven parameters --*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automatic BFV parameter selection from compiled programs - the
/// "parameter tuning" step the paper cites as prior work ([3, 11, 13, 14])
/// and assumes around its compiler: analyze the programs' multiplicative
/// depth and pick the smallest standard 128-bit-security (N, Q) pair whose
/// budget covers it.
///
/// This is the only place programs are mapped to parameters: the compiler
/// reports its result, and every execution backend builds exactly the
/// parameters handed to it in backend::SessionSpec::Params.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_PARAMETERSELECTOR_H
#define PORCUPINE_BACKEND_PARAMETERSELECTOR_H

#include "bfv/BfvContext.h"
#include "quill/Program.h"

#include <vector>

namespace porcupine {

/// The parameters a session running every program in \p Programs needs:
/// the ladder rung of the deepest member. A table lookup; no context is
/// built.
BfvParams selectParameters(const std::vector<const quill::Program *> &Programs);

} // namespace porcupine

#endif // PORCUPINE_BACKEND_PARAMETERSELECTOR_H
