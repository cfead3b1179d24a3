//===- quill/Interpreter.h - Behavioral Quill evaluation --------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The behavioral model at the heart of Quill: programs execute over
/// unencrypted slot vectors under HE instruction rules (element-wise
/// arithmetic mod t, unison rotation). This is what the synthesis engine
/// evaluates candidates on, and what the encrypted executor must agree with
/// (the stack's central soundness property).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_INTERPRETER_H
#define PORCUPINE_QUILL_INTERPRETER_H

#include "quill/Program.h"

#include <cstdint>
#include <vector>

namespace porcupine {
namespace quill {

/// A plaintext stand-in for a ciphertext: one batching row of slot values,
/// reduced mod t.
using SlotVector = std::vector<uint64_t>;

/// Evaluates \p P on \p Inputs (one SlotVector per ciphertext input, all
/// of one width of at least P.VectorSize; see interpretAll) with plaintext
/// modulus \p T. Returns the output vector.
SlotVector interpret(const Program &P, const std::vector<SlotVector> &Inputs,
                     uint64_t T);

/// Evaluates and returns every intermediate value (indexed by value id);
/// used for traces (paper Figure 7) and for incremental synthesis caching.
/// The inputs share one width of at least P.VectorSize: at exactly
/// VectorSize this is the program's own semantics; wider (a whole batching
/// row) every value is that wide and rotations wrap at the row, as they do
/// under encryption — full-vector constants read 0 past their values and
/// splats fill the row, as the encoders do.
std::vector<SlotVector> interpretAll(const Program &P,
                                     std::vector<SlotVector> Inputs,
                                     uint64_t T);

/// Applies a single instruction given resolved operand vectors.
SlotVector applyInstr(const Instr &I, const std::vector<SlotVector> &Values,
                      const std::vector<PlainConstant> &Constants, uint64_t T);

/// Rotates \p V left by \p Amount slots (negative = right), wrapping.
SlotVector rotateSlots(const SlotVector &V, int Amount);

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_INTERPRETER_H
