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

/// The shareable session state: the row geometry and modulus a pooled
/// runtime set agrees on. Immutable, so reuse across threads is free.
struct DryRunState {
  size_t Row = 0;        ///< Batching-row width (N/2 of the matching BFV
                         ///< parameters — rotation semantics match BFV).
  size_t PolyDegree = 0; ///< The N those parameters would use.
  uint64_t T = 65537;    ///< Plaintext modulus.
};

class DryRunSession : public Executor {
public:
  DryRunSession(std::shared_ptr<const DryRunState> State,
                const quill::LatencyTable &Latency)
      : State(std::move(State)), Cost(Latency) {}

  Expected<Value> encrypt(const std::vector<uint64_t> &Values) const override {
    // Mirror BFV exactly: reduce mod t and occupy row-0 slots [0, size),
    // zeros beyond — so rotations that cross the input boundary bring in
    // the same zeros a ciphertext row holds.
    SlotVector Row(State->Row, 0);
    for (size_t I = 0; I < Values.size(); ++I)
      Row[I] = Values[I] % State->T;
    return Value::wrap(std::move(Row));
  }

  Expected<Value> run(const quill::Program &P,
                      const std::vector<Value> &Inputs) const override {
    auto Values = interpretAll(P, rows(Inputs), State->T);
    ChargedUs += Cost.latency(P);
    return Value::wrap(std::move(Values[P.outputId()]));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    SlotVector Slots = V.get<SlotVector>();
    Slots.resize(Width);
    return Slots;
  }

  double noiseBudget(const Value &) const override { return 0.0; }

  Expected<std::vector<std::vector<uint64_t>>>
  runWithTrace(const quill::Program &P, const std::vector<Value> &Inputs,
               size_t TraceWidth) const override {
    auto Values = interpretAll(P, rows(Inputs), State->T);
    std::vector<std::vector<uint64_t>> Trace(
        Values.begin() + P.NumInputs, Values.end());
    for (SlotVector &Snap : Trace)
      Snap.resize(TraceWidth);
    ChargedUs += Cost.latency(P);
    return Trace;
  }

  size_t slotCount() const override { return State->Row; }
  size_t polyDegree() const override { return State->PolyDegree; }
  uint64_t plainModulus() const override { return State->T; }

  std::shared_ptr<const void> sharedState() const override { return State; }

  double chargedLatencyUs() const override { return ChargedUs; }

private:
  /// The session values' slot rows. Each is State->Row wide, so the
  /// interpreter wraps rotations at the batching row, as BFV does.
  static std::vector<SlotVector> rows(const std::vector<Value> &Inputs) {
    std::vector<SlotVector> Rows;
    Rows.reserve(Inputs.size());
    for (const Value &V : Inputs)
      Rows.push_back(V.get<SlotVector>());
    return Rows;
  }

  std::shared_ptr<const DryRunState> State;
  quill::CostModel Cost;
  mutable double ChargedUs = 0.0;
};

} // namespace

Expected<std::unique_ptr<Executor>>
DryRunBackend::createExecutor(const SessionSpec &Spec) const {
  std::shared_ptr<const DryRunState> State;
  if (Spec.Reuse) {
    State = std::static_pointer_cast<const DryRunState>(Spec.Reuse);
  } else {
    // Adopt the row geometry of the selected BFV parameters so rotation
    // wrap-around is byte-identical to encrypted execution.
    auto S = std::make_shared<DryRunState>();
    S->Row = Spec.Params.PolyDegree / 2;
    S->PolyDegree = Spec.Params.PolyDegree;
    S->T = Spec.PlainModulus;
    State = std::move(S);
  }

  if (State->T < 2)
    return Status::error("execute", "dry-run execution needs a plaintext "
                                    "modulus of at least 2");
  for (const quill::Program *P : Spec.Programs)
    if (P->VectorSize > State->Row)
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(State->Row));

  return std::unique_ptr<Executor>(
      new DryRunSession(std::move(State), Spec.Latency));
}
