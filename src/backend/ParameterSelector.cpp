//===- backend/ParameterSelector.cpp - Program-driven parameters -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ParameterSelector.h"

#include "quill/Analysis.h"

using namespace porcupine;

ParameterChoice porcupine::selectParameters(const quill::Program &P) {
  ParameterChoice Choice;
  Choice.MultiplicativeDepth =
      static_cast<unsigned>(quill::programMultiplicativeDepth(P));
  // BfvContext's ladder, read without constructing tables.
  BfvParams Params = BfvContext::paramsForMultDepth(Choice.MultiplicativeDepth);
  Choice.PolyDegree = Params.PolyDegree;
  for (unsigned Bits : Params.CoeffPrimeBits)
    Choice.CoeffModulusBits += Bits;
  return Choice;
}

BfvContext porcupine::contextForProgram(const quill::Program &P) {
  return BfvContext::forMultDepth(
      static_cast<unsigned>(quill::programMultiplicativeDepth(P)));
}
