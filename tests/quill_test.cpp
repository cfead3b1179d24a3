//===- tests/quill_test.cpp - Unit tests for the Quill DSL -----------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ExecutorBackend.h"
#include "backend/ParameterSelector.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/CostModel.h"
#include "quill/Interpreter.h"
#include "quill/Program.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

/// The paper's running dot-product example (Figure 2): multiply, then a
/// two-level rotate-add reduction tree over 4 packed elements.
Program dotProduct4() {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  int Prod = P.append(Instr::ctCt(Opcode::MulCtCt, 0, 1)); // c2
  int R2 = P.append(Instr::rot(Prod, 2));                  // c3
  int S1 = P.append(Instr::ctCt(Opcode::AddCtCt, Prod, R2)); // c4
  int R1 = P.append(Instr::rot(S1, 1));                    // c5
  P.append(Instr::ctCt(Opcode::AddCtCt, S1, R1));          // c6
  return P;
}

TEST(Interpreter, RotateSlotsLeftAndRight) {
  SlotVector V = {1, 2, 3, 4, 5};
  EXPECT_EQ(rotateSlots(V, 1), (SlotVector{2, 3, 4, 5, 1}));
  EXPECT_EQ(rotateSlots(V, -1), (SlotVector{5, 1, 2, 3, 4}));
  EXPECT_EQ(rotateSlots(V, 5), V);
  EXPECT_EQ(rotateSlots(V, 7), rotateSlots(V, 2));
  EXPECT_EQ(rotateSlots(V, -6), rotateSlots(V, -1));
}

TEST(Interpreter, DotProductExample) {
  Program P = dotProduct4();
  SlotVector A = {1, 2, 3, 4}, B = {5, 6, 7, 8};
  SlotVector Out = interpret(P, {A, B}, T);
  // 1*5 + 2*6 + 3*7 + 4*8 = 70 lands in slot 0.
  EXPECT_EQ(Out[0], 70u);
}

TEST(Interpreter, ArithmeticWrapsModT) {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 2;
  P.append(Instr::ctCt(Opcode::SubCtCt, 0, 1));
  SlotVector Out = interpret(P, {{0, 5}, {1, 7}}, T);
  EXPECT_EQ(Out[0], T - 1);
  EXPECT_EQ(Out[1], T - 2);
}

TEST(Interpreter, PlainOperandSplatAndVector) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 3;
  int Splat = P.internConstant(PlainConstant{{2}});
  int Vec = P.internConstant(PlainConstant{{10, 20, 30}});
  int Doubled = P.append(Instr::ctPt(Opcode::MulCtPt, 0, Splat));
  P.append(Instr::ctPt(Opcode::AddCtPt, Doubled, Vec));
  SlotVector Out = interpret(P, {{1, 2, 3}}, T);
  EXPECT_EQ(Out, (SlotVector{12, 24, 36}));
}

TEST(Interpreter, FullVectorConstantReadsZeroPastItsValues) {
  // A program wider than its full-vector constant (as when a kernel is
  // widened): slots past the stored values read 0, as the encoders fill
  // them, while a splat still reaches every slot.
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 6;
  int Vec = P.internConstant(PlainConstant{{10, 20, 30}});
  int Splat = P.internConstant(PlainConstant{{2}});
  int Sum = P.append(Instr::ctPt(Opcode::AddCtPt, 0, Vec));
  int Prod = P.append(Instr::ctPt(Opcode::MulCtPt, Sum, Vec));
  P.append(Instr::ctPt(Opcode::SubCtPt, Prod, Splat));
  auto Values = interpretAll(P, {{1, 2, 3, 4, 5, 6}}, T);
  EXPECT_EQ(Values[Sum], (SlotVector{11, 22, 33, 4, 5, 6}));
  EXPECT_EQ(Values[Prod], (SlotVector{110, 440, 990, 0, 0, 0}));
  EXPECT_EQ(Values.back(), (SlotVector{108, 438, 988, T - 2, T - 2, T - 2}));

  // At row width: a program half as wide as the dryrun backend's row,
  // interpreted on row-wide inputs, wraps its rotation at the row and
  // reads its constant as the encoder fills it — the backend's own row.
  Program Half;
  Half.NumInputs = 1;
  Half.VectorSize = 1024;
  int HalfVec = Half.internConstant(PlainConstant{{10, 20, 30}});
  int Shifted = Half.append(Instr::ctPt(Opcode::AddCtPt, 0, HalfVec));
  int Right = Half.append(Instr::rot(Shifted, -1));
  Half.append(Instr::ctPt(Opcode::MulCtPt, Right, HalfVec));
  const backend::ExecutorBackend *Dry =
      backend::BackendRegistry::builtin().find("dryrun");
  ASSERT_NE(Dry, nullptr);
  backend::SessionSpec Spec;
  Spec.Programs = {&Half};
  Spec.Params = selectParameters(Spec.Programs, *Dry, T).Params;
  auto Exec = Dry->createExecutor(Spec);
  ASSERT_TRUE(Exec.hasValue()) << Exec.status().toString();
  const size_t Row = (*Exec)->slotCount();
  ASSERT_EQ(Row, 2 * Half.VectorSize);
  SlotVector In(Row);
  for (size_t I = 0; I < Row; ++I)
    In[I] = I + 1;
  auto Enc = (*Exec)->encrypt(In);
  ASSERT_TRUE(Enc.hasValue());
  auto Out = (*Exec)->run(Half, {*Enc});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  SlotVector Interpreted = interpret(Half, {In}, T);
  EXPECT_EQ((*Exec)->decrypt(*Out, Row), Interpreted);
  // Slot 0 took slot Row-1 (not VectorSize-1) across the wrap.
  EXPECT_EQ(Interpreted[0], (Row * 10) % T);
}

TEST(Interpreter, NegativePlainConstantsWrap) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 2;
  int C = P.internConstant(PlainConstant{{-1}});
  P.append(Instr::ctPt(Opcode::MulCtPt, 0, C));
  SlotVector Out = interpret(P, {{3, 0}}, T);
  EXPECT_EQ(Out[0], T - 3);
  EXPECT_EQ(Out[1], 0u);
}

TEST(Interpreter, InterpretAllExposesIntermediates) {
  Program P = dotProduct4();
  auto Values = interpretAll(P, {{1, 1, 1, 1}, {2, 2, 2, 2}}, T);
  EXPECT_EQ(Values.size(), 7u); // 2 inputs + 5 instructions.
  EXPECT_EQ(Values[2], (SlotVector{2, 2, 2, 2}));  // Product.
  EXPECT_EQ(Values[6][0], 8u);                     // Reduction result.
}

TEST(Analysis, DepthsOfDotProduct) {
  Program P = dotProduct4();
  EXPECT_EQ(programDepth(P), 5);
  EXPECT_EQ(programMultiplicativeDepth(P), 1);
}

TEST(Analysis, MultiplicativeDepthCountsBothMulKinds) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 2;
  int C = P.internConstant(PlainConstant{{3}});
  int A = P.append(Instr::ctPt(Opcode::MulCtPt, 0, C));
  int B = P.append(Instr::ctCt(Opcode::MulCtCt, A, A));
  P.append(Instr::ctCt(Opcode::AddCtCt, B, 0));
  EXPECT_EQ(programMultiplicativeDepth(P), 2);
}

TEST(Analysis, InstrMixCategories) {
  Program P = dotProduct4();
  InstrMix Mix = countInstructions(P);
  EXPECT_EQ(Mix.Total, 5);
  EXPECT_EQ(Mix.Rotations, 2);
  EXPECT_EQ(Mix.CtCtMuls, 1);
  EXPECT_EQ(Mix.AddsSubs, 2);
}

TEST(Analysis, DeadValueDetection) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  P.append(Instr::rot(0, 1));                       // c1: dead
  int B = P.append(Instr::rot(0, 2));               // c2
  P.append(Instr::ctCt(Opcode::AddCtCt, 0, B));     // c3 = output
  auto Dead = deadValues(P);
  ASSERT_EQ(Dead.size(), 1u);
  EXPECT_EQ(Dead[0], 1);
}

TEST(Analysis, NoDeadValuesInOptimalProgram) {
  EXPECT_TRUE(deadValues(dotProduct4()).empty());
}

TEST(CostModelTest, CostFormula) {
  LatencyTable Table;
  Table.AddCtCt = 10;
  Table.MulCtCt = 1000;
  Table.RotCt = 100;
  CostModel Model(Table);
  Program P = dotProduct4();
  double Lat = 1000 + 100 + 10 + 100 + 10;
  EXPECT_DOUBLE_EQ(Model.latency(P), Lat);
  EXPECT_DOUBLE_EQ(Model.cost(P), Lat * (1 + 1)); // mdepth 1.
}

TEST(CostModelTest, DepthPenaltyRewardsLowNoise) {
  // Same latency, different multiplicative depth: cost must differ.
  LatencyTable Table;
  CostModel Model(Table);
  Program Shallow, Deep;
  for (Program *P : {&Shallow, &Deep}) {
    P->NumInputs = 2;
    P->VectorSize = 2;
  }
  int C = Shallow.internConstant(PlainConstant{{2}});
  Shallow.append(Instr::ctPt(Opcode::MulCtPt, 0, C));   // mdepth 1
  int M = Deep.append(Instr::ctCt(Opcode::MulCtCt, 0, 1)); // mdepth 1
  (void)M;
  EXPECT_LT(Model.cost(Shallow), Model.cost(Deep)); // MulCtPt cheaper.
}

TEST(ProgramText, PrintParseRoundTrip) {
  Program P = dotProduct4();
  std::string Text = printProgram(P);
  Program Q;
  std::string Error;
  ASSERT_TRUE(parseProgram(Text, Q, Error)) << Error;
  EXPECT_EQ(Q.NumInputs, P.NumInputs);
  EXPECT_EQ(Q.VectorSize, P.VectorSize);
  EXPECT_EQ(Q.Instructions.size(), P.Instructions.size());
  for (size_t I = 0; I < P.Instructions.size(); ++I)
    EXPECT_TRUE(Q.Instructions[I] == P.Instructions[I]) << "instr " << I;
  EXPECT_EQ(printProgram(Q), Text);
}

TEST(ProgramText, ParseWithConstantsAndComments) {
  const char *Text = R"(; Gx-style kernel
quill inputs=1 width=9
const p0 = [2]
c1 = rot-ct c0 3      ; align row below
c2 = add-ct-ct c0 c1
c3 = mul-ct-pt c2 p0
return c3
)";
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram(Text, P, Error)) << Error;
  EXPECT_EQ(P.Constants.size(), 1u);
  EXPECT_EQ(P.Constants[0].Values, std::vector<int64_t>{2});
  EXPECT_EQ(P.Instructions.size(), 3u);
  EXPECT_EQ(P.outputId(), 3);
}

TEST(ProgramText, ParseRejectsMalformedPrograms) {
  Program P;
  std::string Error;
  EXPECT_FALSE(parseProgram("c1 = rot-ct c0 1\n", P, Error));
  EXPECT_FALSE(parseProgram("quill inputs=1 width=4\nc1 = bogus c0 1\n", P,
                            Error));
  EXPECT_FALSE(
      parseProgram("quill inputs=1 width=4\nc1 = add-ct-ct c0 c9\n", P,
                   Error));
  EXPECT_FALSE(
      parseProgram("quill inputs=1 width=4\nc5 = rot-ct c0 1\n", P, Error));
}

TEST(ProgramText, FuzzedProgramTextParsesOrFailsCleanly) {
  // Seeded mutation fuzz over every printed bundled program: truncations,
  // byte substitutions and insertions, and splices of two programs' text.
  // Each mutant either fails with a message or parses to a program that
  // passes validate() — the contract the artifact loader and `porcc run`
  // rely on.
  const uint64_t Seed = testSeed(7300);
  SeedReporter Report(Seed);
  Rng R(Seed);
  const std::string Alphabet = " \n\t;=-[],cp0123456789abdeilmnoqrstuwx";
  std::vector<std::string> Texts;
  for (const kernels::KernelBundle &B : kernels::allKernels())
    Texts.push_back(printProgram(B.Synthesized));
  int Parsed = 0;
  for (int Round = 0; Round < 3000; ++Round) {
    std::string Mut = Texts[R.below(Texts.size())];
    for (uint64_t Edits = 1 + R.below(3); Edits > 0; --Edits)
      Mut = mutateBytes(R, std::move(Mut), Texts[R.below(Texts.size())],
                        Alphabet);
    Program P;
    std::string Error;
    if (parseProgram(Mut, P, Error)) {
      ++Parsed;
      EXPECT_EQ(P.validate(), "") << Mut;
    } else {
      EXPECT_FALSE(Error.empty()) << Mut;
    }
  }
  // Some mutants get past the parser, so validate() is exercised too.
  EXPECT_GT(Parsed, 0);
}

TEST(ProgramValidate, CatchesNoOpRotationAndBadConstant) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  P.append(Instr::rot(0, 4)); // Rotation by the full width = no-op.
  EXPECT_FALSE(P.validate().empty());

  Program Q;
  Q.NumInputs = 1;
  Q.VectorSize = 4;
  Q.Constants.push_back(PlainConstant{{1, 2}}); // Neither splat nor width 4.
  Q.append(Instr::ctPt(Opcode::AddCtPt, 0, 0));
  EXPECT_FALSE(Q.validate().empty());
}

TEST(ProgramValidate, AcceptsWellFormed) {
  EXPECT_EQ(dotProduct4().validate(), "");
}

} // namespace
