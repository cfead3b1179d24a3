//===- tests/synth_property_test.cpp - Synthesis engine properties --------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Behavioral guarantees of the synthesis engine beyond "it finds the
/// known kernels": determinism, timeout handling, minimality, bound
/// discipline in the optimization phase, and lowering invariants
/// (rotation CSE, SSA validity, no dead code).
///
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "quill/Analysis.h"
#include "quill/CostModel.h"
#include "spec/Equivalence.h"
#include "support/Timing.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <map>

using namespace porcupine;
using namespace porcupine::synth;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

/// out[i] = x[i] + x[i+1] + x[i+2] over 8 slots (wrap-free mask).
KernelSpec window3Spec() {
  DataLayout Layout;
  Layout.OutputMask = {true, true, true, true, true, true, false, false};
  return makeKernelSpec("window3", 1, 8, Layout,
                        [](const auto &In, auto Konst) {
                          (void)Konst;
                          std::vector<std::decay_t<decltype(In[0][0])>> Out;
                          for (size_t I = 0; I < 8; ++I)
                            Out.push_back(In[0][I] + In[0][(I + 1) % 8] +
                                          In[0][(I + 2) % 8]);
                          return Out;
                        });
}

Sketch window3Sketch() {
  Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 8;
  Sk.Menu = {Component::ctCt(Opcode::AddCtCt)};
  Sk.Rotations = RotationSet::slidingWindowForward(8, 1, 3, 1);
  return Sk;
}

TEST(SynthProperties, DeterministicForFixedSeed) {
  KernelSpec Spec = window3Spec();
  Sketch Sk = window3Sketch();
  SynthesisOptions Opts;
  Opts.Seed = 99;
  auto A = synthesize(Spec, Sk, Opts);
  auto B = synthesize(Spec, Sk, Opts);
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_EQ(printProgram(A.Prog), printProgram(B.Prog));
  EXPECT_EQ(A.Stats.ExamplesUsed, B.Stats.ExamplesUsed);
  EXPECT_EQ(A.Stats.NodesExplored, B.Stats.NodesExplored);
}

TEST(SynthProperties, FindsMinimalComponentCount) {
  // window3 needs exactly 2 adds; the engine must not return 3.
  auto Result = synthesize(window3Spec(), window3Sketch(), {});
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.ComponentsUsed, 2);
}

TEST(SynthProperties, MinComponentsIsRespected) {
  // window3's only solutions use 2 adds, and none of 3 to 5 live
  // components exists. A search that ignored MinComponents would return
  // the 2-add program; one that respects it exhausts [3, 5] well inside
  // the timeout and finds nothing.
  SynthesisOptions Opts;
  Opts.MinComponents = 3;
  Opts.MaxComponents = 5;
  auto Result = synthesize(window3Spec(), window3Sketch(), Opts);
  EXPECT_FALSE(Result.Found);
  EXPECT_FALSE(Result.Stats.TimedOut);
}

TEST(SynthProperties, MaxComponentsBoundsFailure) {
  SynthesisOptions Opts;
  Opts.MaxComponents = 1; // Too small for window3.
  auto Result = synthesize(window3Spec(), window3Sketch(), Opts);
  EXPECT_FALSE(Result.Found);
  EXPECT_FALSE(Result.Stats.TimedOut);
}

TEST(SynthProperties, LoweredProgramsAreValidAndLean) {
  auto Result = synthesize(window3Spec(), window3Sketch(), {});
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Prog.validate(), "");
  EXPECT_TRUE(deadValues(Result.Prog).empty());
  // Rotation CSE: no duplicated (source, amount) pairs.
  std::map<std::pair<int, int>, int> Rotations;
  for (const Instr &I : Result.Prog.Instructions)
    if (I.Op == Opcode::RotCt)
      ++Rotations[{I.Src0, I.Rot}];
  for (const auto &[Key, Count] : Rotations)
    EXPECT_EQ(Count, 1) << "rotation of c" << Key.first << " by "
                        << Key.second << " materialized twice";
}

TEST(SynthProperties, OptimizationPhaseRespectsBoundDiscipline) {
  // With optimization on, final cost <= initial cost, and when the
  // optimizer completes (no timeout) it claims optimality.
  SynthesisOptions Opts;
  Opts.TimeoutSeconds = 60;
  auto Result = synthesize(window3Spec(), window3Sketch(), Opts);
  ASSERT_TRUE(Result.Found);
  EXPECT_LE(Result.Stats.FinalCost, Result.Stats.InitialCost);
  EXPECT_TRUE(Result.Stats.ProvenOptimal);
  // And the reported final cost matches the cost model on the program.
  CostModel Model(Opts.Latency);
  EXPECT_NEAR(Model.cost(Result.Prog), Result.Stats.FinalCost, 1e-6);
}

TEST(SynthProperties, OptimizeFlagOff) {
  SynthesisOptions Opts;
  Opts.Optimize = false;
  auto Result = synthesize(window3Spec(), window3Sketch(), Opts);
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.InitialCost, Result.Stats.FinalCost);
  EXPECT_FALSE(Result.Stats.ProvenOptimal);
}

TEST(SynthProperties, TinyTimeoutReturnsQuicklyAndHonestly) {
  // A sketch large enough that it cannot be exhausted instantly.
  KernelSpec Spec = window3Spec();
  Sketch Sk = window3Sketch();
  Sk.Rotations = RotationSet::full(8);
  Sk.Menu.push_back(Component::ctCt(Opcode::SubCtCt));
  Sk.Menu.push_back(
      Component::ctCt(Opcode::MulCtCt, OperandKind::Ct, OperandKind::Ct));
  SynthesisOptions Opts;
  Opts.TimeoutSeconds = 0.05;
  Opts.MaxComponents = 8;
  Stopwatch W;
  auto Result = synthesize(Spec, Sk, Opts);
  EXPECT_LT(W.seconds(), 5.0); // Must notice the timeout promptly.
  if (!Result.Found) {
    EXPECT_TRUE(Result.Stats.TimedOut);
  }
}

TEST(SynthProperties, RotationHolesOnlyWhereRequested) {
  // With Ct-only holes and no rotation in the menu, the solution cannot
  // contain rotations, so window3 must fail.
  KernelSpec Spec = window3Spec();
  Sketch Sk = window3Sketch();
  Sk.Menu = {Component::ctCt(Opcode::AddCtCt, OperandKind::Ct,
                             OperandKind::Ct)};
  SynthesisOptions Opts;
  Opts.MaxComponents = 4;
  auto Result = synthesize(Spec, Sk, Opts);
  EXPECT_FALSE(Result.Found);
}

TEST(SynthProperties, ConstantsFlowIntoSolutions) {
  // Spec: out = 3*x + 1 (slot-parallel). Requires both constants.
  DataLayout Layout;
  Layout.OutputMask = {true, true};
  KernelSpec Spec = makeKernelSpec(
      "affine", 1, 2, Layout, [](const auto &In, auto Konst) {
        std::vector<std::decay_t<decltype(In[0][0])>> Out;
        for (size_t I = 0; I < 2; ++I)
          Out.push_back(Konst(3) * In[0][I] + Konst(1));
        return Out;
      });
  Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 2;
  int Three = Sk.addConstant(PlainConstant{{3}});
  int One = Sk.addConstant(PlainConstant{{1}});
  Sk.Menu = {Component::ctPt(Opcode::MulCtPt, Three),
             Component::ctPt(Opcode::AddCtPt, One)};
  Sk.Rotations = RotationSet::explicitAmounts(2, {});
  auto Result = synthesize(Spec, Sk, {});
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Stats.ComponentsUsed, 2);
  const uint64_t Seed = testSeed(5);
  SeedReporter Report(Seed);
  Rng R(Seed);
  EXPECT_TRUE(verifyProgram(Result.Prog, Spec, T, R).Equivalent);
}

TEST(SynthProperties, MultiInputOperandSelection) {
  // out = (a - b) slot-wise with three inputs present; the engine must
  // pick the right two.
  DataLayout Layout;
  Layout.OutputMask = {true, true, true};
  KernelSpec Spec = makeKernelSpec(
      "pick", 3, 3, Layout, [](const auto &In, auto Konst) {
        (void)Konst;
        std::vector<std::decay_t<decltype(In[0][0])>> Out;
        for (size_t I = 0; I < 3; ++I)
          Out.push_back(In[2][I] - In[0][I]);
        return Out;
      });
  Sketch Sk;
  Sk.NumInputs = 3;
  Sk.VectorSize = 3;
  Sk.Menu = {Component::ctCt(Opcode::SubCtCt, OperandKind::Ct,
                             OperandKind::Ct)};
  Sk.Rotations = RotationSet::explicitAmounts(3, {});
  auto Result = synthesize(Spec, Sk, {});
  ASSERT_TRUE(Result.Found);
  EXPECT_EQ(Result.Prog.Instructions.size(), 1u);
  EXPECT_EQ(Result.Prog.Instructions[0].Src0, 2);
  EXPECT_EQ(Result.Prog.Instructions[0].Src1, 0);
}

} // namespace
