//===- backend/BfvExecutor.cpp - Encrypted Quill execution -----------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvExecutor.h"

#include "support/Error.h"

#include <cassert>
#include <optional>

using namespace porcupine;
using namespace porcupine::quill;

BfvExecutor::BfvExecutor(const BfvContext &Ctx, Rng &R,
                         const std::vector<const Program *> &Programs)
    : Ctx(Ctx), Keygen(Ctx, R), Eval(Ctx),
      Enc(Ctx, Keygen.createPublicKey(), R), Dec(Ctx, Keygen.secretKey()),
      Relin(Keygen.createRelinKeys(Gadget)) {
  for (const Program *P : Programs) {
    (void)P; // Only read by the assert.
    assert(P->VectorSize <= Ctx.slotCount() &&
           "kernel wider than a batching row");
  }
  Galois = Keygen.createGaloisKeys(requiredRotations(Programs),
                                   /*IncludeColumnSwap=*/false, Gadget);
}

Ciphertext
BfvExecutor::encryptInput(const std::vector<uint64_t> &Values) const {
  assert(Values.size() <= Ctx.slotCount() && "input wider than a row");
  return Enc.encrypt(Eval.encoder().encode(Values));
}

Plaintext BfvExecutor::encodeConstant(const PlainConstant &C) const {
  const BatchEncoder &Encoder = Eval.encoder();
  std::vector<int64_t> Slots;
  if (C.isSplat()) {
    Slots.assign(Encoder.slotCount(), C.Values[0]);
  } else {
    Slots.assign(Encoder.slotCount(), 0);
    for (size_t I = 0; I < C.Values.size(); ++I)
      Slots[I] = C.Values[I];
  }
  return Encoder.encodeSigned(Slots);
}

Ciphertext
BfvExecutor::execInstr(const Instr &I, bool ExplicitRelin,
                       const std::vector<const Ciphertext *> &Values,
                       const std::vector<Plaintext> &Consts) const {
  const Ciphertext &A = *Values[I.Src0];
  switch (I.Op) {
  case Opcode::AddCtCt:
    return Eval.add(A, *Values[I.Src1]);
  case Opcode::SubCtCt:
    return Eval.sub(A, *Values[I.Src1]);
  case Opcode::MulCtCt:
    // Implicit programs follow the paper's code generation: a
    // relinearization after every ciphertext-ciphertext multiply.
    // Explicit-relin programs schedule it themselves via Relin. Both
    // operands come from the table, so mul-ct-ct c c passes one object
    // twice and takes the evaluator's square path.
    if (ExplicitRelin)
      return Eval.multiply(A, *Values[I.Src1]);
    return Eval.relinearize(Eval.multiply(A, *Values[I.Src1]), Relin);
  case Opcode::AddCtPt:
    return Eval.addPlain(A, Consts[I.PtIdx]);
  case Opcode::SubCtPt:
    return Eval.subPlain(A, Consts[I.PtIdx]);
  case Opcode::MulCtPt:
    return Eval.multiplyPlain(A, Consts[I.PtIdx]);
  case Opcode::Relin:
    return Eval.relinearize(A, Relin);
  case Opcode::RotCt:
    break; // run() owns rotations and their hoisted state.
  }
  PORC_UNREACHABLE("unhandled opcode");
}

Ciphertext BfvExecutor::run(const Program &P,
                            const std::vector<const Ciphertext *> &Inputs,
                            const InstrHook &AfterInstr) const {
  assert(static_cast<int>(Inputs.size()) == P.NumInputs && "input count");
  std::vector<Plaintext> Consts;
  Consts.reserve(P.Constants.size());
  for (const PlainConstant &C : P.Constants)
    Consts.push_back(encodeConstant(C));

  // Halevi-Shoup hoisting: decompose each rotated value once, at its first
  // rotation, and free the state after its last. Galois element 1 is the
  // identity and never touches the state. Values are counted the same way:
  // a computed value is freed after the last instruction that reads it,
  // unless it is the output.
  auto EltOf = [&](const Instr &I) {
    return Eval.encoder().galoisEltForRotation(I.Rot);
  };
  const int Output = P.outputId();
  std::vector<int> RotationsLeft(P.numValues(), 0), UsesLeft(P.numValues(), 0);
  for (const Instr &I : P.Instructions) {
    if (I.Op == Opcode::RotCt && EltOf(I) != 1)
      ++RotationsLeft[I.Src0];
    ++UsesLeft[I.Src0];
    if (isCtCt(I.Op))
      ++UsesLeft[I.Src1];
  }
  std::vector<std::optional<HoistedCiphertext>> Hoisted(P.numValues());

  // Values[v] points at input v or into Owned, which is sized up front so
  // the pointers stay valid.
  std::vector<Ciphertext> Owned(P.Instructions.size());
  std::vector<const Ciphertext *> Values = Inputs;
  Values.reserve(P.numValues());
  auto Release = [&](int V) {
    if (--UsesLeft[V] == 0 && V >= P.NumInputs && V != Output)
      Owned[V - P.NumInputs] = Ciphertext();
  };
  for (size_t K = 0; K < P.Instructions.size(); ++K) {
    const Instr &I = P.Instructions[K];
    Ciphertext &Result = Owned[K];
    if (I.Op != Opcode::RotCt) {
      Result = execInstr(I, P.ExplicitRelin, Values, Consts);
    } else if (uint64_t Elt = EltOf(I); Elt == 1) {
      Result = *Values[I.Src0];
    } else {
      std::optional<HoistedCiphertext> &H = Hoisted[I.Src0];
      if (!H)
        H = Eval.hoist(*Values[I.Src0], Gadget);
      Result = Eval.applyGalois(*H, Elt, Galois);
      if (--RotationsLeft[I.Src0] == 0)
        H.reset();
    }
    Values.push_back(&Result);
    if (AfterInstr)
      AfterInstr(Result);
    Release(I.Src0);
    if (isCtCt(I.Op))
      Release(I.Src1);
    // A value nothing reads is freed at once.
    int Id = P.NumInputs + static_cast<int>(K);
    if (UsesLeft[Id] == 0 && Id != Output)
      Result = Ciphertext();
  }
  if (Output < P.NumInputs)
    return *Values[Output];
  return std::move(Owned[Output - P.NumInputs]);
}

Ciphertext BfvExecutor::run(const Program &P,
                            const std::vector<Ciphertext> &Inputs,
                            const InstrHook &AfterInstr) const {
  std::vector<const Ciphertext *> Table;
  Table.reserve(Inputs.size());
  for (const Ciphertext &Ct : Inputs)
    Table.push_back(&Ct);
  return run(P, Table, AfterInstr);
}

std::vector<uint64_t> BfvExecutor::slotsOf(const Plaintext &Plain,
                                           size_t Width) const {
  auto Slots = Eval.encoder().decode(Plain);
  Slots.resize(Width);
  return Slots;
}

std::vector<uint64_t> BfvExecutor::decryptOutput(const Ciphertext &Ct,
                                                 size_t Width) const {
  return slotsOf(Dec.decrypt(Ct), Width);
}

double BfvExecutor::noiseBudget(const Ciphertext &Ct) const {
  return Dec.invariantNoiseBudget(Ct);
}

backend::Executor::Decrypted
BfvExecutor::decryptWithBudget(const Ciphertext &Ct, size_t Width) const {
  Decryption D = Dec.decryptWithBudget(Ct);
  return {slotsOf(D.Plain, Width), D.NoiseBudget};
}
