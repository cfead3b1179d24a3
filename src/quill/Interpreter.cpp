//===- quill/Interpreter.cpp - Behavioral Quill evaluation -----------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/Interpreter.h"

#include "math/ModArith.h"

#include <cassert>

using namespace porcupine;
using namespace porcupine::quill;

SlotVector quill::rotateSlots(const SlotVector &V, int Amount) {
  size_t N = V.size();
  assert(N > 0);
  long Norm = Amount % static_cast<long>(N);
  if (Norm < 0)
    Norm += N;
  if (Norm == 0)
    return V;
  SlotVector Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = V[(I + Norm) % N];
  return Out;
}

SlotVector quill::applyInstr(const Instr &I,
                             const std::vector<SlotVector> &Values,
                             const std::vector<PlainConstant> &Constants,
                             uint64_t T) {
  const SlotVector &A = Values[I.Src0];
  size_t N = A.size();
  SlotVector Out(N);
  switch (I.Op) {
  case Opcode::AddCtCt: {
    const SlotVector &B = Values[I.Src1];
    for (size_t J = 0; J < N; ++J)
      Out[J] = addMod(A[J], B[J], T);
    return Out;
  }
  case Opcode::SubCtCt: {
    const SlotVector &B = Values[I.Src1];
    for (size_t J = 0; J < N; ++J)
      Out[J] = subMod(A[J], B[J], T);
    return Out;
  }
  case Opcode::MulCtCt: {
    const SlotVector &B = Values[I.Src1];
    for (size_t J = 0; J < N; ++J)
      Out[J] = mulMod(A[J], B[J], T);
    return Out;
  }
  case Opcode::AddCtPt: {
    const PlainConstant &C = Constants[I.PtIdx];
    for (size_t J = 0; J < N; ++J)
      Out[J] = addMod(A[J], toResidue(C.at(J), T), T);
    return Out;
  }
  case Opcode::SubCtPt: {
    const PlainConstant &C = Constants[I.PtIdx];
    for (size_t J = 0; J < N; ++J)
      Out[J] = subMod(A[J], toResidue(C.at(J), T), T);
    return Out;
  }
  case Opcode::MulCtPt: {
    const PlainConstant &C = Constants[I.PtIdx];
    for (size_t J = 0; J < N; ++J)
      Out[J] = mulMod(A[J], toResidue(C.at(J), T), T);
    return Out;
  }
  case Opcode::RotCt:
    return rotateSlots(A, I.Rot);
  case Opcode::Relin:
    // Relinearization reduces ciphertext components; the decrypted slot
    // values are untouched, so behaviorally it is the identity.
    return A;
  }
  return Out;
}

std::vector<SlotVector> quill::interpretAll(const Program &P,
                                            std::vector<SlotVector> Inputs,
                                            uint64_t T) {
  assert(static_cast<int>(Inputs.size()) == P.NumInputs &&
         "input count mismatch");
  for (const SlotVector &In : Inputs) {
    (void)In; // Only read by the assert.
    assert(In.size() >= P.VectorSize && In.size() == Inputs[0].size() &&
           "inputs must share one width of at least VectorSize");
  }
  std::vector<SlotVector> Values = std::move(Inputs);
  Values.reserve(P.numValues());
  for (const Instr &I : P.Instructions)
    Values.push_back(applyInstr(I, Values, P.Constants, T));
  return Values;
}

SlotVector quill::interpret(const Program &P,
                            const std::vector<SlotVector> &Inputs,
                            uint64_t T) {
  auto Values = interpretAll(P, Inputs, T);
  return Values[P.outputId()];
}
