//===- tests/quill_property_test.cpp - Randomized Quill properties --------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property-based tests over randomly generated Quill programs: the
/// printer/parser round-trip, agreement between the concrete interpreter
/// and the symbolic evaluator, and static-analysis invariants. These are
/// the soundness glue between the synthesis engine (which trusts the
/// interpreter), the verifier (which trusts the symbolic evaluator), and
/// the executor (tested against the interpreter elsewhere).
///
//===----------------------------------------------------------------------===//

#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "quill/Program.h"
#include "spec/Equivalence.h"
#include "support/Random.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

std::vector<SlotVector> randomInputs(Rng &R, const Program &P) {
  std::vector<SlotVector> Inputs;
  for (int I = 0; I < P.NumInputs; ++I)
    Inputs.push_back(R.vectorBelow(T, P.VectorSize));
  return Inputs;
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, PrintParseRoundTrip) {
  const uint64_t Seed = testSeed(1000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  Program P = randomProgram(R, 8, 10);
  ASSERT_EQ(P.validate(), "");
  Program Q;
  std::string Error;
  ASSERT_TRUE(parseProgram(printProgram(P), Q, Error)) << Error;
  EXPECT_EQ(Q.NumInputs, P.NumInputs);
  EXPECT_EQ(Q.Constants.size(), P.Constants.size());
  ASSERT_EQ(Q.Instructions.size(), P.Instructions.size());
  for (size_t I = 0; I < P.Instructions.size(); ++I)
    EXPECT_TRUE(Q.Instructions[I] == P.Instructions[I]) << "instr " << I;
  // Round-tripped programs evaluate identically.
  auto Inputs = randomInputs(R, P);
  EXPECT_EQ(interpret(P, Inputs, T), interpret(Q, Inputs, T));
}

TEST_P(RandomProgramTest, SymbolicEvaluationMatchesInterpreter) {
  const uint64_t Seed = testSeed(2000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  Program P = randomProgram(R, 6, 8);
  // Symbolic inputs: one variable per input slot.
  std::vector<std::vector<SymPoly>> Sym(P.NumInputs);
  for (int I = 0; I < P.NumInputs; ++I)
    for (size_t J = 0; J < P.VectorSize; ++J)
      Sym[I].push_back(
          SymPoly::variable(static_cast<uint32_t>(I * P.VectorSize + J), T));
  auto SymOut = evalProgramSymbolic(P, Sym, T);

  for (int Trial = 0; Trial < 5; ++Trial) {
    auto Inputs = randomInputs(R, P);
    std::vector<uint64_t> Assignment;
    for (const auto &In : Inputs)
      Assignment.insert(Assignment.end(), In.begin(), In.end());
    auto Concrete = interpret(P, Inputs, T);
    for (size_t J = 0; J < P.VectorSize; ++J)
      ASSERT_EQ(SymOut[J].evaluate(Assignment), Concrete[J])
          << "slot " << J << " trial " << Trial;
  }
}

TEST_P(RandomProgramTest, AnalysisInvariants) {
  const uint64_t Seed = testSeed(3000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  Program P = randomProgram(R, 8, 12);
  auto Depths = computeDepths(P);
  auto MDepths = computeMultiplicativeDepths(P);
  auto Mix = countInstructions(P);

  // Depth grows by at most one per instruction; mdepth bounded by the
  // total multiply count; mdepth <= depth everywhere.
  EXPECT_LE(programDepth(P), static_cast<int>(P.Instructions.size()));
  EXPECT_LE(programMultiplicativeDepth(P), Mix.CtCtMuls + Mix.CtPtMuls);
  for (int V = 0; V < P.numValues(); ++V)
    EXPECT_LE(MDepths[V], Depths[V]) << "value " << V;

  // Dead values really are dead: zeroing them must not change the output.
  auto Dead = deadValues(P);
  auto Inputs = randomInputs(R, P);
  auto Base = interpret(P, Inputs, T);
  if (!Dead.empty()) {
    // Replace the first dead instruction with a different one; output is
    // unchanged.
    Program Q = P;
    int DeadId = Dead[0];
    Q.Instructions[DeadId - Q.NumInputs] = Instr::rot(0, 1);
    EXPECT_EQ(interpret(Q, Inputs, T), Base);
  }
}

TEST_P(RandomProgramTest, RotationComposition) {
  const uint64_t Seed = testSeed(4000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  SlotVector V = R.vectorBelow(T, 16);
  int A = static_cast<int>(R.below(31)) - 15;
  int B = static_cast<int>(R.below(31)) - 15;
  EXPECT_EQ(rotateSlots(rotateSlots(V, A), B), rotateSlots(V, A + B));
  EXPECT_EQ(rotateSlots(rotateSlots(V, A), -A), V);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 12));

} // namespace
