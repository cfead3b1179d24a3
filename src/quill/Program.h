//===- quill/Program.h - Quill straight-line programs -----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SSA representation of Quill programs: straight-line instruction lists
/// over ciphertext values. Value numbering: ids [0, NumInputs) are the
/// ciphertext inputs; instruction k defines value NumInputs + k; the last
/// instruction (or a designated id) is the output. Plaintext operands live
/// in a constant table on the program.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_PROGRAM_H
#define PORCUPINE_QUILL_PROGRAM_H

#include "quill/Opcode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace porcupine {
namespace quill {

/// A plaintext constant: either a splat (single value broadcast to every
/// slot) or a full slot vector.
struct PlainConstant {
  std::vector<int64_t> Values;

  bool isSplat() const { return Values.size() == 1; }

  /// Value at slot \p I (splats broadcast). A full vector reads 0 past its
  /// stored values, as the encoders fill the rest of the row.
  int64_t at(size_t I) const {
    if (isSplat())
      return Values[0];
    return I < Values.size() ? Values[I] : 0;
  }

  bool operator==(const PlainConstant &RHS) const {
    return Values == RHS.Values;
  }
};

/// One Quill instruction. Operand fields are value ids; unused fields are
/// kept at their defaults.
struct Instr {
  Opcode Op = Opcode::AddCtCt;
  /// First ciphertext operand (always used).
  int Src0 = 0;
  /// Second ciphertext operand (ct-ct opcodes only).
  int Src1 = 0;
  /// Plaintext table index (ct-pt opcodes only).
  int PtIdx = 0;
  /// Left-rotation amount (rot-ct only); may be negative (= right).
  int Rot = 0;

  static Instr ctCt(Opcode Op, int Src0, int Src1) {
    Instr I;
    I.Op = Op;
    I.Src0 = Src0;
    I.Src1 = Src1;
    return I;
  }

  static Instr ctPt(Opcode Op, int Src0, int PtIdx) {
    Instr I;
    I.Op = Op;
    I.Src0 = Src0;
    I.PtIdx = PtIdx;
    return I;
  }

  static Instr rot(int Src0, int Amount) {
    Instr I;
    I.Op = Opcode::RotCt;
    I.Src0 = Src0;
    I.Rot = Amount;
    return I;
  }

  bool operator==(const Instr &RHS) const {
    return Op == RHS.Op && Src0 == RHS.Src0 && Src1 == RHS.Src1 &&
           PtIdx == RHS.PtIdx && Rot == RHS.Rot;
  }
};

/// A straight-line Quill program.
struct Program {
  /// Number of ciphertext inputs (value ids 0 .. NumInputs-1).
  int NumInputs = 1;
  /// SIMD vector width the program operates on (a batching row).
  size_t VectorSize = 0;
  /// Relinearization discipline. When false (the default, and what
  /// synthesis produces), mul-ct-ct implies the mandatory relinearization
  /// and Relin instructions are illegal — the paper's model. When true the
  /// program schedules relinearization explicitly: mul-ct-ct is the raw
  /// tensor product (a three-component result), Relin reduces back to two
  /// components, and validate() enforces the degree discipline (rot-ct and
  /// mul-ct-ct operands must be two-component). The lazy-relin pass
  /// converts to this form when it can elide or share relinearizations.
  bool ExplicitRelin = false;
  /// Plaintext constant table.
  std::vector<PlainConstant> Constants;
  /// Instruction list; instruction k defines value NumInputs + k.
  std::vector<Instr> Instructions;
  /// Output value id; defaults to the last defined value.
  int Output = -1;

  /// The id the k-th instruction defines.
  int valueOf(size_t K) const { return NumInputs + static_cast<int>(K); }

  /// Output id, resolving the -1 default.
  int outputId() const {
    return Output >= 0 ? Output
                       : NumInputs + static_cast<int>(Instructions.size()) - 1;
  }

  /// Total value count (inputs + instruction results).
  int numValues() const {
    return NumInputs + static_cast<int>(Instructions.size());
  }

  /// Appends an instruction and returns the id of the value it defines.
  int append(const Instr &I) {
    Instructions.push_back(I);
    return NumInputs + static_cast<int>(Instructions.size()) - 1;
  }

  /// Adds a constant (deduplicating) and returns its table index.
  int internConstant(const PlainConstant &C);

  /// Checks SSA well-formedness: operand ids precede definitions, table
  /// indices in range, rotation amounts nonzero mod VectorSize, and the
  /// relinearization discipline (Relin only in explicit-relin programs,
  /// where every rot-ct/mul-ct-ct operand must be two-component). Returns
  /// an error string, empty if valid.
  std::string validate() const;

  /// Per-value ciphertext component degree under the explicit-relin
  /// discipline: inputs and rotations are 2, a raw mul-ct-ct is 3, Relin
  /// reduces to 2, everything else takes its operand maximum. For implicit
  /// programs every value is 2.
  std::vector<int> componentDegrees() const;
};

/// Renders a program in the paper's textual form.
std::string printProgram(const Program &P);

/// Parses the printProgram format. Returns false (with \p Error set) on
/// malformed input.
bool parseProgram(const std::string &Text, Program &Out, std::string &Error);

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_PROGRAM_H
