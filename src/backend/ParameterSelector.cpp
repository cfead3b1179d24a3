//===- backend/ParameterSelector.cpp - Program-driven parameters -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ParameterSelector.h"

#include "quill/Analysis.h"

#include <algorithm>

using namespace porcupine;

BfvParams porcupine::selectParameters(
    const std::vector<const quill::Program *> &Programs) {
  int Depth = 0;
  for (const quill::Program *P : Programs)
    Depth = std::max(Depth, quill::programMultiplicativeDepth(*P));
  return BfvContext::paramsForMultDepth(static_cast<unsigned>(Depth));
}
