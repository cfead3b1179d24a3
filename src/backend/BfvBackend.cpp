//===- backend/BfvBackend.cpp - In-tree BFV execution backend -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvBackend.h"

#include "backend/BfvExecutor.h"
#include "math/Primes.h"

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

  Expected<Value> run(const quill::Program &P, const std::vector<Value> &Inputs,
                      const InstrHook &AfterInstr) const override {
    std::vector<const Ciphertext *> Cts;
    Cts.reserve(Inputs.size());
    for (const Value &V : Inputs)
      Cts.push_back(&V.get<Ciphertext>());
    BfvExecutor::InstrHook Hook;
    if (AfterInstr)
      Hook = [&](const Ciphertext &Ct) { AfterInstr(Value::wrap(Ct)); };
    return Value::wrap(Exec->run(P, Cts, Hook));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    return Exec->decryptOutput(V.get<Ciphertext>(), Width);
  }

  double noiseBudget(const Value &V) const override {
    return Exec->noiseBudget(V.get<Ciphertext>());
  }

  Decrypted decryptWithBudget(const Value &V, size_t Width) const override {
    return Exec->decryptWithBudget(V.get<Ciphertext>(), Width);
  }

  size_t slotCount() const override { return Ctx->slotCount(); }
  size_t polyDegree() const override { return Ctx->polyDegree(); }
  uint64_t plainModulus() const override { return Ctx->plainModulus(); }

private:
  std::shared_ptr<const BfvContext> Ctx;
  std::unique_ptr<Rng> R; // Keys/encryptor hold a reference into this.
  std::unique_ptr<BfvExecutor> Exec;
};

/// Why a context cannot batch plaintext modulus t at \p Params, or "" when
/// it can: slots need a prime t = 1 mod 2N, and plaintexts embed as small
/// residues of every coefficient prime, so t must stay below the smallest
/// (a b-bit prime is at least 2^(b-1)).
std::string unsupportedPlainModulus(const BfvParams &Params) {
  const uint64_t T = Params.PlainModulus;
  if (!isPrime(T))
    return "is not prime";
  if ((T - 1) % (2 * Params.PolyDegree) != 0)
    return "is not 1 mod 2N = " + std::to_string(2 * Params.PolyDegree);
  unsigned MinBits = *std::min_element(Params.CoeffPrimeBits.begin(),
                                       Params.CoeffPrimeBits.end());
  if (T >> (MinBits - 1) != 0)
    return "is not below 2^" + std::to_string(MinBits - 1) + ", the least a " +
           std::to_string(MinBits) + "-bit coefficient prime can be";
  return "";
}

} // namespace

Expected<std::unique_ptr<Executor>>
BfvBackend::createExecutor(const SessionSpec &Spec) const {
  const BfvParams &Params = Spec.Params;
  if (std::string Why = unsupportedPlainModulus(Params); !Why.empty())
    return Status::error("execute", "encrypted execution at N=" +
                                        std::to_string(Params.PolyDegree) +
                                        " cannot batch plaintext modulus " +
                                        std::to_string(Params.PlainModulus) +
                                        ": it " + Why +
                                        " (65537 batches on every rung)");
  const size_t Row = Params.PolyDegree / 2;
  for (const quill::Program *P : Spec.Programs)
    if (P->VectorSize > Row)
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(Row));

  std::shared_ptr<const BfvContext> Ctx = Contexts.get(
      {Params.PolyDegree, Params.PlainModulus, Params.CoeffPrimeBits,
       Params.DecompWidth},
      [&] { return std::make_shared<const BfvContext>(Params); });
  return std::unique_ptr<Executor>(
      new BfvSession(std::move(Ctx), Spec.ExecutionSeed, Spec.Programs));
}
