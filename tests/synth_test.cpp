//===- tests/synth_test.cpp - Unit tests for the synthesis engine ---------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Compose.h"
#include "synth/Sketch.h"
#include "synth/Synthesizer.h"

#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "spec/Equivalence.h"
#include "SynthDeterminism.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::synth;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

SynthesisOptions fastOptions() {
  SynthesisOptions Opts;
  Opts.TimeoutSeconds = 60.0;
  Opts.MaxComponents = 6;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Rotation sets
//===----------------------------------------------------------------------===//

TEST(RotationSets, PowersOfTwo) {
  auto S = RotationSet::powersOfTwo(16);
  EXPECT_EQ(S.amounts(), (std::vector<int>{1, 2, 4, 8}));
}

TEST(RotationSets, SlidingWindow3x3OnStride5) {
  auto S = RotationSet::slidingWindow(25, 3, 3, 5);
  // Signed window-alignment offsets; sign is preserved so programs stay
  // portable to the full ciphertext row width.
  EXPECT_EQ(S.amounts(), (std::vector<int>{-6, -5, -4, -1, 1, 4, 5, 6}));
}

TEST(RotationSets, FullExcludesZero) {
  auto S = RotationSet::full(8);
  EXPECT_EQ(S.size(), 7u);
  for (int A : S.amounts())
    EXPECT_NE(A, 0);
}

TEST(RotationSets, ExplicitNormalizesAndDeduplicates) {
  auto S = RotationSet::explicitAmounts(10, {-1, 9, 3, 13, 0});
  EXPECT_EQ(S.amounts(), (std::vector<int>{-1, 3, 9}));
}

//===----------------------------------------------------------------------===//
// Specs used below
//===----------------------------------------------------------------------===//

/// out[0] = sum a[i]*b[i] over 4 packed slots.
KernelSpec dotSpec() {
  DataLayout Layout;
  Layout.Description = "two packed 4-vectors; result in slot 0";
  Layout.OutputMask = {true, false, false, false};
  return makeKernelSpec("dot4", 2, 4, Layout, [](const auto &In, auto Konst) {
    auto Acc = Konst(0);
    for (size_t I = 0; I < 4; ++I)
      Acc = Acc + In[0][I] * In[1][I];
    std::vector<std::decay_t<decltype(Acc)>> Out(4, Konst(0));
    Out[0] = Acc;
    return Out;
  });
}

/// Elementwise linear regression: out = a*x + b with a, b, x packed.
KernelSpec linRegSpec() {
  DataLayout Layout;
  Layout.Description = "slot-parallel a*x+b over 4 slots";
  Layout.OutputMask = {true, true, true, true};
  return makeKernelSpec("linreg", 3, 4, Layout,
                        [](const auto &In, auto Konst) {
                          (void)Konst;
                          std::vector<std::decay_t<decltype(In[0][0])>> Out;
                          for (size_t I = 0; I < 4; ++I)
                            Out.push_back(In[0][I] * In[1][I] + In[2][I]);
                          return Out;
                        });
}

/// 1D box blur: out[i] = x[i] + x[i+1] over 8 slots (last slot wraps;
/// masked out).
KernelSpec blur1dSpec() {
  DataLayout Layout;
  Layout.Description = "8-slot signal; out[i] = x[i] + x[i+1]";
  Layout.OutputMask = {true, true, true, true, true, true, true, false};
  return makeKernelSpec("blur1d", 1, 8, Layout,
                        [](const auto &In, auto Konst) {
                          (void)Konst;
                          std::vector<std::decay_t<decltype(In[0][0])>> Out;
                          for (size_t I = 0; I < 8; ++I)
                            Out.push_back(In[0][I] + In[0][(I + 1) % 8]);
                          return Out;
                        });
}

/// x -> 3*x^2 + x, exercising constants and the factoring optimization.
KernelSpec polySpec() {
  DataLayout Layout;
  Layout.OutputMask = {true, true};
  return makeKernelSpec("poly", 1, 2, Layout, [](const auto &In, auto Konst) {
    std::vector<std::decay_t<decltype(In[0][0])>> Out;
    for (size_t I = 0; I < 2; ++I)
      Out.push_back(Konst(3) * In[0][I] * In[0][I] + In[0][I]);
    return Out;
  });
}

//===----------------------------------------------------------------------===//
// End-to-end synthesis
//===----------------------------------------------------------------------===//

TEST(Synthesize, DotProductFindsMinimalReduction) {
  KernelSpec Spec = dotSpec();
  Sketch Sk;
  Sk.NumInputs = 2;
  Sk.VectorSize = 4;
  Sk.Menu = {Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct),
             Component::ctCt(Opcode::AddCtCt)};
  Sk.Rotations = RotationSet::powersOfTwo(4);

  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.ComponentsUsed, 3); // mul + 2 adds.
  EXPECT_EQ(Result.Prog.Instructions.size(), 5u); // + 2 rotations.
  Rng R(99);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
  EXPECT_EQ(programMultiplicativeDepth(Result.Prog), 1);
}

TEST(Synthesize, LinearRegressionIsTwoComponents) {
  KernelSpec Spec = linRegSpec();
  Sketch Sk;
  Sk.NumInputs = 3;
  Sk.VectorSize = 4;
  Sk.Menu = {Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct),
             Component::ctCt(Opcode::AddCtCt, OperandKind::Ct,
                             OperandKind::Ct)};
  Sk.Rotations = RotationSet::explicitAmounts(4, {});

  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.ComponentsUsed, 2);
  EXPECT_EQ(Result.Prog.Instructions.size(), 2u);
  Rng R(99);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
}

TEST(Synthesize, Blur1dUsesLocalRotate) {
  KernelSpec Spec = blur1dSpec();
  Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 8;
  Sk.Menu = {Component::ctCt(Opcode::AddCtCt)};
  Sk.Rotations = RotationSet::slidingWindow(8, 1, 3, 1);

  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.ComponentsUsed, 1); // One add, one rotation.
  EXPECT_EQ(Result.Prog.Instructions.size(), 2u);
  Rng R(99);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
}

TEST(Synthesize, PolynomialUsesFactoredForm) {
  // 3x^2 + x = (3x + 1)*x: with a mul-ct-pt by 3, an add-ct-pt of 1, and
  // one ct-ct mul, three components suffice; the naive form needs more.
  KernelSpec Spec = polySpec();
  Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 2;
  int Three = Sk.addConstant(PlainConstant{{3}});
  int One = Sk.addConstant(PlainConstant{{1}});
  Sk.Menu = {Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct),
             Component::ctCt(Opcode::AddCtCt, OperandKind::Ct,
                             OperandKind::Ct),
             Component::ctPt(Opcode::MulCtPt, Three),
             Component::ctPt(Opcode::AddCtPt, One)};
  Sk.Rotations = RotationSet::explicitAmounts(2, {});

  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_LE(Result.Stats.ComponentsUsed, 3);
  Rng R(99);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
  // Only one ct-ct multiply needed in the factored form.
  EXPECT_LE(countInstructions(Result.Prog).CtCtMuls, 1);
}

TEST(Synthesize, OptimizationNeverRaisesCost) {
  KernelSpec Spec = dotSpec();
  Sketch Sk;
  Sk.NumInputs = 2;
  Sk.VectorSize = 4;
  Sk.Menu = {Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct),
             Component::ctCt(Opcode::AddCtCt)};
  Sk.Rotations = RotationSet::powersOfTwo(4);
  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_LE(Result.Stats.FinalCost, Result.Stats.InitialCost);
  EXPECT_GT(Result.Stats.ExamplesUsed, 0);
  EXPECT_GT(Result.Stats.NodesExplored, 0);
}

TEST(Synthesize, UnsatisfiableSketchReportsNotFound) {
  // Addition alone cannot implement a product.
  KernelSpec Spec = linRegSpec();
  Sketch Sk;
  Sk.NumInputs = 3;
  Sk.VectorSize = 4;
  Sk.Menu = {Component::ctCt(Opcode::AddCtCt, OperandKind::Ct,
                             OperandKind::Ct)};
  Sk.Rotations = RotationSet::explicitAmounts(4, {});
  SynthesisOptions Opts = fastOptions();
  Opts.MaxComponents = 3;
  auto Result = synthesize(Spec, Sk, Opts);
  EXPECT_FALSE(Result.Found);
  EXPECT_FALSE(Result.Stats.TimedOut);
}

TEST(Synthesize, ExplicitRotationModeFindsSameKernel) {
  KernelSpec Spec = blur1dSpec();
  Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 8;
  Sk.Menu = {Component::ctCt(Opcode::AddCtCt, OperandKind::Ct,
                             OperandKind::Ct)};
  Sk.Rotations = RotationSet::slidingWindow(8, 1, 3, 1);
  Sk.ExplicitRotations = true;
  SynthesisOptions Opts = fastOptions();
  Opts.MaxComponents = 4;
  auto Result = synthesize(Spec, Sk, Opts);
  ASSERT_TRUE(Result.Found);
  // Rotation + add = 2 components in explicit mode.
  EXPECT_EQ(Result.Stats.ComponentsUsed, 2);
  Rng R(99);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
}

TEST(Synthesize, CegisAddsExamplesForSingleOutputKernels) {
  // Single-constrained-slot kernels admit many input-specific programs, so
  // CEGIS typically needs counterexamples (paper section 7.4).
  KernelSpec Spec = dotSpec();
  Sketch Sk;
  Sk.NumInputs = 2;
  Sk.VectorSize = 4;
  Sk.Menu = {Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct),
             Component::ctCt(Opcode::AddCtCt)};
  Sk.Rotations = RotationSet::full(4);
  auto Result = synthesize(Spec, Sk, fastOptions());
  ASSERT_TRUE(Result.Found);
  EXPECT_GE(Result.Stats.ExamplesUsed, 1);
}

//===----------------------------------------------------------------------===//
// Composition
//===----------------------------------------------------------------------===//

TEST(Compose, InlineProgramRemapsValuesAndConstants) {
  // Stage 1: double the input. Stage 2: add 1. Compose and check.
  Program Doubler;
  Doubler.NumInputs = 1;
  Doubler.VectorSize = 4;
  int Two = Doubler.internConstant(PlainConstant{{2}});
  Doubler.append(Instr::ctPt(Opcode::MulCtPt, 0, Two));

  Program AddOne;
  AddOne.NumInputs = 1;
  AddOne.VectorSize = 4;
  int One = AddOne.internConstant(PlainConstant{{1}});
  AddOne.append(Instr::ctPt(Opcode::AddCtPt, 0, One));

  Program Chained = chainPrograms({Doubler, AddOne});
  EXPECT_EQ(Chained.Instructions.size(), 2u);
  SlotVector Out = interpret(Chained, {{1, 2, 3, 4}}, T);
  EXPECT_EQ(Out, (SlotVector{3, 5, 7, 9}));
}

TEST(Compose, MultiInputCombine) {
  // Combine two stage outputs: out = gx*gx + gy*gy.
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;

  Program Stage; // x + rot(x,1)
  Stage.NumInputs = 1;
  Stage.VectorSize = 4;
  int Rot = Stage.append(Instr::rot(0, 1));
  Stage.append(Instr::ctCt(Opcode::AddCtCt, 0, Rot));

  Program Stage2; // x - rot(x,1)
  Stage2.NumInputs = 1;
  Stage2.VectorSize = 4;
  int Rot2 = Stage2.append(Instr::rot(0, 1));
  Stage2.append(Instr::ctCt(Opcode::SubCtCt, 0, Rot2));

  int Gx = synth::inlineProgram(P, Stage, {0});
  int Gy = synth::inlineProgram(P, Stage2, {0});
  int Gx2 = P.append(Instr::ctCt(Opcode::MulCtCt, Gx, Gx));
  int Gy2 = P.append(Instr::ctCt(Opcode::MulCtCt, Gy, Gy));
  P.append(Instr::ctCt(Opcode::AddCtCt, Gx2, Gy2));

  EXPECT_EQ(P.validate(), "");
  SlotVector X = {5, 1, 2, 7};
  auto Out = interpret(P, {X}, T);
  for (size_t I = 0; I < 4; ++I) {
    uint64_t S = (X[I] + X[(I + 1) % 4]) % T;
    uint64_t D = (X[I] + T - X[(I + 1) % 4]) % T;
    EXPECT_EQ(Out[I], (S * S + D * D) % T);
  }
}

//===----------------------------------------------------------------------===//
// Thread-count determinism on the slower bundled kernels
//===----------------------------------------------------------------------===//

// synth_parallel_test runs the same check on the sub-second kernels with
// the fast label; these four take seconds each.

TEST(ParallelSynthesis, PolynomialRegressionDeterministicAcrossThreads) {
  expectSameProgram(kernels::polyRegressionKernel());
}

TEST(ParallelSynthesis, GxDeterministicAcrossThreads) {
  expectSameProgram(kernels::gxKernel());
}

TEST(ParallelSynthesis, GyDeterministicAcrossThreads) {
  expectSameProgram(kernels::gyKernel());
}

TEST(ParallelSynthesis, DotProductDeterministicAcrossThreads) {
  expectSameProgram(kernels::dotProductKernel());
}

} // namespace
