//===- backend/ParameterSelector.cpp - Program-driven parameters -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ParameterSelector.h"

#include "quill/Noise.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <string>

using namespace porcupine;

/// The table's rungs as \p Backend builds them. Pricing a rung generates
/// its primes, which costs more than bounding a program, so each backend's
/// rungs are priced once per process.
static const std::vector<quill::NoiseParams> &
pricedRungs(const backend::ExecutorBackend &Backend) {
  static std::mutex M;
  static std::map<std::string, std::vector<quill::NoiseParams>> Cache;
  std::lock_guard<std::mutex> L(M);
  std::vector<quill::NoiseParams> &Rungs = Cache[Backend.name()];
  if (Rungs.empty())
    for (const BfvParams &Rung : BfvContext::standardParams())
      Rungs.push_back(Backend.noiseParams(Rung));
  return Rungs;
}

ParameterSelection porcupine::selectParameters(
    const std::vector<const quill::Program *> &Programs,
    const backend::ExecutorBackend &Backend, uint64_t PlainModulus) {
  const std::vector<BfvParams> &Table = BfvContext::standardParams();
  const std::vector<quill::NoiseParams> &Priced = pricedRungs(Backend);
  size_t Width = 0;
  for (const quill::Program *P : Programs)
    Width = std::max(Width, P->VectorSize);
  ParameterSelection Sel;
  for (size_t I = 0; I < Table.size(); ++I) {
    // The fresh noise and every multiply scale with t, so the session's
    // plaintext modulus prices the rung, not the table's.
    quill::NoiseParams Noise = Priced[I];
    Noise.PlainModulus = PlainModulus;
    double Budget = std::numeric_limits<double>::infinity();
    for (const quill::Program *P : Programs)
      Budget = std::min(Budget, quill::predictNoiseBudget(*P, Noise));
    Sel.Params = Table[I];
    Sel.Params.PlainModulus = PlainModulus;
    Sel.PredictedBudgetBits = Budget;
    // A rung whose batching row is narrower than a program cannot run it.
    Sel.Certified = Table[I].PolyDegree / 2 >= Width &&
                    Budget >= NoiseGuardBits + NoiseMarginBits;
    if (Sel.Certified)
      break;
  }
  return Sel;
}
