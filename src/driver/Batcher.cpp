//===- driver/Batcher.cpp - Cross-request ciphertext batching -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Batcher.h"

#include "quill/Interpreter.h"
#include "support/Random.h"

#include <cassert>

using namespace porcupine;
using namespace porcupine::driver;

BatchPlan BatchPlan::analyze(const CompiledKernel &K, const KernelSpec &Spec,
                             size_t MaxBatch) {
  const quill::Program &P = K.program();
  BatchPlan Plan;
  Plan.Window = P.VectorSize;
  Plan.NumInputs = P.NumInputs;
  Plan.Mask.assign(Plan.Window, true);
  for (size_t I = 0; I < Plan.Window; ++I)
    Plan.Mask[I] = Spec.outputSlotMatters(I);
  auto Row = K.packedRowWidth();
  if (!Row) {
    Plan.Note = Row.status().message();
    return Plan;
  }
  Plan.Row = *Row;

  size_t Cap = Plan.Window ? Plan.Row / Plan.Window : 0;
  if (MaxBatch && Cap > MaxBatch)
    Cap = MaxBatch;
  if (Cap <= 1) {
    Plan.Note = "row of " + std::to_string(Plan.Row) +
                " slots fits at most one " + std::to_string(Plan.Window) +
                "-slot window";
    return Plan;
  }

  // Static gate: a non-splat constant is per-slot data authored for a
  // single logical vector; at row width it would need replicating per
  // window, which changes the ciphertext the program was verified
  // against. Splats broadcast to every slot under encryption already.
  for (const quill::PlainConstant &C : P.Constants) {
    if (!C.isSplat()) {
      Plan.Note = "program uses a non-splat plaintext constant";
      return Plan;
    }
  }

  // Dynamic gate: seeded random trials at full capacity. Any dependence
  // of one window's masked outputs on another window's inputs — or any
  // masked slot that a row-wide rotation computes differently than the
  // VectorSize-wide reference — almost surely breaks a random trial
  // mod t, so three passes give high confidence the tiling is exact.
  const uint64_t T = K.options().Synthesis.PlainModulus;
  for (uint64_t Trial = 0; Trial < 3; ++Trial) {
    Rng R(0x5eedbeef + Trial);
    std::vector<RequestInputs> PerReq;
    PerReq.reserve(Cap);
    std::vector<quill::SlotVector> Rows(
        static_cast<size_t>(P.NumInputs), quill::SlotVector(Plan.Row, 0));
    for (size_t Kk = 0; Kk < Cap; ++Kk) {
      PerReq.push_back(Spec.randomInputs(R, T));
      for (int In = 0; In < P.NumInputs; ++In)
        for (size_t J = 0; J < Plan.Window; ++J)
          Rows[In][Kk * Plan.Window + J] = PerReq.back()[In][J];
    }
    quill::SlotVector Packed = quill::interpret(P, Rows, T);
    for (size_t Kk = 0; Kk < Cap; ++Kk) {
      quill::SlotVector Want = quill::interpret(P, PerReq[Kk], T);
      for (size_t J = 0; J < Plan.Window; ++J) {
        if (!Plan.Mask[J])
          continue;
        if (Packed[Kk * Plan.Window + J] != Want[J]) {
          Plan.Note = "packed validation mismatch at window " +
                      std::to_string(Kk) + ", slot " + std::to_string(J);
          return Plan;
        }
      }
    }
  }

  Plan.Capacity = Cap;
  return Plan;
}

std::vector<std::vector<uint64_t>>
BatchPlan::pack(const std::vector<const RequestInputs *> &Requests) const {
  assert(Requests.size() >= 1 && Requests.size() <= Capacity &&
         "group exceeds the plan's capacity");
  std::vector<std::vector<uint64_t>> Rows(
      static_cast<size_t>(NumInputs),
      std::vector<uint64_t>(Requests.size() * Window, 0));
  for (size_t Kk = 0; Kk < Requests.size(); ++Kk) {
    const RequestInputs &In = *Requests[Kk];
    assert(In.size() == static_cast<size_t>(NumInputs) &&
           "request shape was validated at admission");
    for (size_t I = 0; I < In.size(); ++I) {
      assert(In[I].size() <= Window && "request width exceeds the window");
      for (size_t J = 0; J < In[I].size(); ++J)
        Rows[I][Kk * Window + J] = In[I][J];
    }
  }
  return Rows;
}

std::vector<uint64_t> BatchPlan::slice(const std::vector<uint64_t> &RowOut,
                                       size_t Index) const {
  std::vector<uint64_t> Out(Window, 0);
  for (size_t J = 0; J < Window; ++J) {
    size_t Slot = Index * Window + J;
    if (Mask[J] && Slot < RowOut.size())
      Out[J] = RowOut[Slot];
  }
  return Out;
}
