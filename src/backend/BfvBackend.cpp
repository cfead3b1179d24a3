//===- backend/BfvBackend.cpp - In-tree BFV execution backend -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvBackend.h"

#include "backend/BfvExecutor.h"
#include "quill/Analysis.h"

#include <algorithm>

using namespace porcupine;
using namespace porcupine::backend;

namespace {

/// One BFV session: shared immutable context, a private RNG the keys and
/// encryptor draw from, and the concrete executor. Values hold Ciphertexts.
class BfvSession : public Executor {
public:
  BfvSession(std::shared_ptr<const BfvContext> Ctx, uint64_t Seed,
             const std::vector<const quill::Program *> &Programs)
      : Ctx(std::move(Ctx)), R(std::make_unique<Rng>(Seed)),
        Exec(std::make_unique<BfvExecutor>(*this->Ctx, *R, Programs)) {}

  Expected<Value> encrypt(const std::vector<uint64_t> &Values) const override {
    return Value::wrap(Exec->encryptInput(Values));
  }

  Expected<Value> run(const quill::Program &P,
                      const std::vector<Value> &Inputs) const override {
    std::vector<Ciphertext> Cts;
    Cts.reserve(Inputs.size());
    for (const Value &V : Inputs)
      Cts.push_back(V.get<Ciphertext>());
    return Value::wrap(Exec->run(P, Cts));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    return Exec->decryptOutput(V.get<Ciphertext>(), Width);
  }

  double noiseBudget(const Value &V) const override {
    return Exec->noiseBudget(V.get<Ciphertext>());
  }

  Expected<std::vector<std::vector<uint64_t>>>
  runWithTrace(const quill::Program &P, const std::vector<Value> &Inputs,
               size_t TraceWidth) const override {
    std::vector<Ciphertext> Cts;
    Cts.reserve(Inputs.size());
    for (const Value &V : Inputs)
      Cts.push_back(V.get<Ciphertext>());
    std::vector<std::vector<uint64_t>> Trace;
    Exec->run(P, Cts, [&](const Ciphertext &Ct) {
      Trace.push_back(Exec->decryptOutput(Ct, TraceWidth));
    });
    return Trace;
  }

  size_t slotCount() const override { return Ctx->slotCount(); }
  size_t polyDegree() const override { return Ctx->polyDegree(); }
  uint64_t plainModulus() const override { return Ctx->plainModulus(); }

  std::shared_ptr<const void> sharedState() const override { return Ctx; }

private:
  std::shared_ptr<const BfvContext> Ctx;
  std::unique_ptr<Rng> R; // Keys/encryptor hold a reference into this.
  std::unique_ptr<BfvExecutor> Exec;
};

} // namespace

Expected<std::unique_ptr<Executor>>
BfvBackend::createExecutor(const SessionSpec &Spec) const {
  int Depth = 0;
  for (const quill::Program *P : Spec.Programs)
    Depth = std::max(Depth, quill::programMultiplicativeDepth(*P));

  std::shared_ptr<const BfvContext> Ctx;
  if (Spec.Reuse)
    Ctx = std::static_pointer_cast<const BfvContext>(Spec.Reuse);
  else
    Ctx = std::make_shared<const BfvContext>(
        BfvContext::forMultDepth(static_cast<unsigned>(Depth)));

  // The standard-parameter contexts fix the plaintext modulus; a program
  // compiled/verified under a different modulus would silently compute
  // different values encrypted, so refuse rather than mislead.
  if (Spec.PlainModulus != Ctx->plainModulus())
    return Status::error(
        "execute",
        "encrypted execution uses plaintext modulus " +
            std::to_string(Ctx->plainModulus()) +
            " but the options request " + std::to_string(Spec.PlainModulus) +
            "; run with the default modulus or use the dry-run backend");
  for (const quill::Program *P : Spec.Programs)
    if (P->VectorSize > Ctx->slotCount())
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(Ctx->slotCount()));

  return std::unique_ptr<Executor>(
      new BfvSession(std::move(Ctx), Spec.ExecutionSeed, Spec.Programs));
}
