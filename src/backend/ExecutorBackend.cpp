//===- backend/ExecutorBackend.cpp - Pluggable execution backends ---------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ExecutorBackend.h"

#include "backend/BfvBackend.h"
#include "backend/DryRunBackend.h"
#include "backend/SealBackend.h"

#include <algorithm>
#include <cmath>

using namespace porcupine;
using namespace porcupine::quill;

std::vector<int> porcupine::requiredRotations(const Program &P) {
  std::vector<int> Steps;
  for (const Instr &I : P.Instructions)
    if (I.Op == Opcode::RotCt)
      Steps.push_back(I.Rot);
  std::sort(Steps.begin(), Steps.end());
  Steps.erase(std::unique(Steps.begin(), Steps.end()), Steps.end());
  return Steps;
}

std::vector<int> porcupine::requiredRotations(
    const std::vector<const Program *> &Programs) {
  std::vector<int> AllSteps;
  for (const Program *P : Programs) {
    auto Steps = requiredRotations(*P);
    AllSteps.insert(AllSteps.end(), Steps.begin(), Steps.end());
  }
  std::sort(AllSteps.begin(), AllSteps.end());
  AllSteps.erase(std::unique(AllSteps.begin(), AllSteps.end()),
                 AllSteps.end());
  return AllSteps;
}

quill::NoiseParams
backend::ExecutorBackend::noiseParams(const BfvParams &Params) const {
  quill::NoiseParams Noise;
  Noise.PolyDegree = Params.PolyDegree;
  Noise.PlainModulus = Params.PlainModulus;
  for (uint64_t Q : BfvContext::coeffPrimes(Params))
    Noise.PrimeBits.push_back(std::log2(static_cast<double>(Q)));
  Noise.DigitBits = Params.DecompWidth;
  return Noise;
}

//===----------------------------------------------------------------------===//
// BackendRegistry
//===----------------------------------------------------------------------===//

void backend::BackendRegistry::add(std::unique_ptr<ExecutorBackend> B) {
  const std::string Name = B->name();
  for (std::unique_ptr<ExecutorBackend> &Existing : Backends)
    if (Existing->name() == Name) {
      Existing = std::move(B);
      return;
    }
  Backends.push_back(std::move(B));
}

const backend::ExecutorBackend *
backend::BackendRegistry::find(const std::string &Name) const {
  for (const std::unique_ptr<ExecutorBackend> &B : Backends)
    if (B->name() == Name)
      return B.get();
  return nullptr;
}

std::vector<std::string> backend::BackendRegistry::names() const {
  std::vector<std::string> Names;
  Names.reserve(Backends.size());
  for (const std::unique_ptr<ExecutorBackend> &B : Backends)
    Names.push_back(B->name());
  std::sort(Names.begin(), Names.end());
  return Names;
}

std::string backend::BackendRegistry::namesCsv() const {
  std::string Csv;
  for (const std::string &N : names()) {
    if (!Csv.empty())
      Csv += ", ";
    Csv += N;
  }
  return Csv;
}

const backend::BackendRegistry &backend::BackendRegistry::builtin() {
  static const BackendRegistry Registry = [] {
    BackendRegistry R;
    R.add(std::make_unique<BfvBackend>());
    R.add(std::make_unique<DryRunBackend>());
#ifdef PORCUPINE_WITH_SEAL
    R.add(std::make_unique<SealBackend>());
#endif
    return R;
  }();
  return Registry;
}
