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

Ciphertext BfvExecutor::execInstr(const Instr &I, bool ExplicitRelin,
                                  const std::vector<Ciphertext> &Values,
                                  const std::vector<Plaintext> &Consts) const {
  const Ciphertext &A = Values[I.Src0];
  switch (I.Op) {
  case Opcode::AddCtCt:
    return Eval.add(A, Values[I.Src1]);
  case Opcode::SubCtCt:
    return Eval.sub(A, Values[I.Src1]);
  case Opcode::MulCtCt:
    // Implicit programs follow the paper's code generation: a
    // relinearization after every ciphertext-ciphertext multiply.
    // Explicit-relin programs schedule it themselves via Relin.
    if (ExplicitRelin)
      return Eval.multiply(A, Values[I.Src1]);
    return Eval.relinearize(Eval.multiply(A, Values[I.Src1]), Relin);
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
                            const std::vector<Ciphertext> &Inputs,
                            const InstrHook &AfterInstr) const {
  assert(static_cast<int>(Inputs.size()) == P.NumInputs && "input count");
  std::vector<Plaintext> Consts;
  Consts.reserve(P.Constants.size());
  for (const PlainConstant &C : P.Constants)
    Consts.push_back(encodeConstant(C));

  // Halevi-Shoup hoisting: decompose each rotated value once, at its first
  // rotation, and free the state after its last. Galois element 1 is the
  // identity and never touches the state.
  auto EltOf = [&](const Instr &I) {
    return Eval.encoder().galoisEltForRotation(I.Rot);
  };
  std::vector<int> RotationsLeft(P.numValues(), 0);
  for (const Instr &I : P.Instructions)
    if (I.Op == Opcode::RotCt && EltOf(I) != 1)
      ++RotationsLeft[I.Src0];
  std::vector<std::optional<HoistedCiphertext>> Hoisted(P.numValues());

  std::vector<Ciphertext> Values = Inputs;
  Values.reserve(P.numValues());
  for (const Instr &I : P.Instructions) {
    if (I.Op != Opcode::RotCt) {
      Values.push_back(execInstr(I, P.ExplicitRelin, Values, Consts));
    } else if (uint64_t Elt = EltOf(I); Elt == 1) {
      Values.push_back(Values[I.Src0]);
    } else {
      std::optional<HoistedCiphertext> &H = Hoisted[I.Src0];
      if (!H)
        H = Eval.hoist(Values[I.Src0], Gadget);
      Values.push_back(Eval.applyGalois(*H, Elt, Galois));
      if (--RotationsLeft[I.Src0] == 0)
        H.reset();
    }
    if (AfterInstr)
      AfterInstr(Values.back());
  }
  return Values[P.outputId()];
}

std::vector<uint64_t> BfvExecutor::decryptOutput(const Ciphertext &Ct,
                                                 size_t Width) const {
  auto Slots = Eval.encoder().decode(Dec.decrypt(Ct));
  Slots.resize(Width);
  return Slots;
}

double BfvExecutor::noiseBudget(const Ciphertext &Ct) const {
  return Dec.invariantNoiseBudget(Ct);
}

