//===- backend/DryRunBackend.cpp - Keyless cost-charging backend ----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/DryRunBackend.h"

#include "quill/Interpreter.h"

using namespace porcupine;
using namespace porcupine::backend;
using namespace porcupine::quill;

namespace {

class DryRunSession : public Executor {
public:
  DryRunSession(const BfvParams &Params, const quill::LatencyTable &Latency)
      : Row(Params.PolyDegree / 2), PolyDegree(Params.PolyDegree),
        T(Params.PlainModulus), Cost(Latency) {}

  Expected<Value> encrypt(const std::vector<uint64_t> &Values) const override {
    // Mirror BFV exactly: reduce mod t and occupy row-0 slots [0, size),
    // zeros beyond — so rotations that cross the input boundary bring in
    // the same zeros a ciphertext row holds.
    SlotVector Slots(Row, 0);
    for (size_t I = 0; I < Values.size(); ++I)
      Slots[I] = Values[I] % T;
    return Value::wrap(std::move(Slots));
  }

  Expected<Value> run(const quill::Program &P, const std::vector<Value> &Inputs,
                      const InstrHook &AfterInstr) const override {
    auto Values = interpretAll(P, rows(Inputs), T);
    ChargedUs += Cost.latency(P);
    if (AfterInstr)
      for (size_t V = P.NumInputs; V < Values.size(); ++V)
        AfterInstr(Value::wrap(Values[V]));
    return Value::wrap(std::move(Values[P.outputId()]));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    SlotVector Slots = V.get<SlotVector>();
    Slots.resize(Width);
    return Slots;
  }

  double noiseBudget(const Value &) const override { return 0.0; }

  size_t slotCount() const override { return Row; }
  size_t polyDegree() const override { return PolyDegree; }
  uint64_t plainModulus() const override { return T; }

  double chargedLatencyUs() const override { return ChargedUs; }

private:
  /// The session values' slot rows. Each is Row wide, so the interpreter
  /// wraps rotations at the batching row, as BFV does.
  static std::vector<SlotVector> rows(const std::vector<Value> &Inputs) {
    std::vector<SlotVector> Rows;
    Rows.reserve(Inputs.size());
    for (const Value &V : Inputs)
      Rows.push_back(V.get<SlotVector>());
    return Rows;
  }

  /// The row geometry and modulus of the selected BFV parameters, so
  /// rotation wrap-around is byte-identical to encrypted execution.
  size_t Row;        ///< Batching-row width, N/2.
  size_t PolyDegree; ///< The N those parameters use.
  uint64_t T;        ///< Plaintext modulus.
  quill::CostModel Cost;
  mutable double ChargedUs = 0.0;
};

} // namespace

Expected<std::unique_ptr<Executor>>
DryRunBackend::createExecutor(const SessionSpec &Spec) const {
  if (Spec.Params.PlainModulus < 2)
    return Status::error("execute", "dry-run execution needs a plaintext "
                                    "modulus of at least 2");
  const size_t Row = Spec.Params.PolyDegree / 2;
  for (const quill::Program *P : Spec.Programs)
    if (P->VectorSize > Row)
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(Row));

  return std::unique_ptr<Executor>(
      new DryRunSession(Spec.Params, Spec.Latency));
}
