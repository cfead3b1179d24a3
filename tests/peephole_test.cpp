//===- tests/peephole_test.cpp - peephole pass tests ----------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/Passes.h"

#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "kernels/Kernels.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

/// Runs the peephole pass over \p P in place; returns its rewrite count.
int peephole(Program &P) {
  return createPass("peephole")->run(P, PassContext());
}

/// Semantic equivalence on random inputs.
void expectSameBehavior(const Program &A, const Program &B, unsigned Seed) {
  ASSERT_EQ(A.NumInputs, B.NumInputs);
  Rng R(Seed);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<SlotVector> Inputs;
    for (int I = 0; I < A.NumInputs; ++I)
      Inputs.push_back(R.vectorBelow(T, A.VectorSize));
    EXPECT_EQ(interpret(A, Inputs, T), interpret(B, Inputs, T))
        << "trial " << Trial;
  }
}

TEST(Peephole, FusesRotationChains) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 2));
  int B = P.append(Instr::rot(A, 3));
  P.append(Instr::ctCt(Opcode::AddCtCt, B, 0));

  Program Opt = P;
  EXPECT_GE(peephole(Opt), 1);
  EXPECT_EQ(Opt.Instructions.size(), 2u); // rot 5 + add.
  expectSameBehavior(P, Opt, 1);
}

TEST(Peephole, CancellingRotationsVanish) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(A, -3)); // 3 - 3 = 0 = identity.
  P.append(Instr::ctCt(Opcode::AddCtCt, B, 0));

  Program Opt = P;
  peephole(Opt);
  // add(x, x) is all that remains.
  EXPECT_EQ(countInstructions(Opt).Rotations, 0);
  expectSameBehavior(P, Opt, 2);
}

TEST(Peephole, DeduplicatesRotations) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 1));
  int B = P.append(Instr::rot(0, 1)); // Duplicate.
  int S = P.append(Instr::ctCt(Opcode::AddCtCt, A, 0));
  P.append(Instr::ctCt(Opcode::AddCtCt, S, B));

  Program Opt = P;
  peephole(Opt);
  EXPECT_EQ(countInstructions(Opt).Rotations, 1);
  expectSameBehavior(P, Opt, 3);
}

TEST(Peephole, FoldsIdentities) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int Zero = P.internConstant(PlainConstant{{0}});
  int One = P.internConstant(PlainConstant{{1}});
  int A = P.append(Instr::ctPt(Opcode::AddCtPt, 0, Zero));
  int B = P.append(Instr::ctPt(Opcode::MulCtPt, A, One));
  P.append(Instr::ctCt(Opcode::AddCtCt, B, B));

  Program Opt = P;
  EXPECT_GE(peephole(Opt), 2);
  EXPECT_EQ(Opt.Instructions.size(), 1u);
  expectSameBehavior(P, Opt, 4);
}

TEST(Peephole, StrengthReducesMulByTwo) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int Two = P.internConstant(PlainConstant{{2}});
  P.append(Instr::ctPt(Opcode::MulCtPt, 0, Two));

  Program Opt = P;
  EXPECT_EQ(peephole(Opt), 1);
  EXPECT_EQ(countInstructions(Opt).CtPtMuls, 0);
  expectSameBehavior(P, Opt, 5);
}

TEST(Peephole, RemovesDeadCode) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  P.append(Instr::rot(0, 1)); // Dead.
  int B = P.append(Instr::rot(0, 2));
  P.append(Instr::ctCt(Opcode::AddCtCt, 0, B));

  Program Opt = P;
  EXPECT_GE(peephole(Opt), 1);
  EXPECT_TRUE(deadValues(Opt).empty());
  expectSameBehavior(P, Opt, 6);
}

TEST(Peephole, BaselinesAreAlreadyPeepholeClean) {
  // The hand-written baselines contain no local redundancy; a rewrite
  // optimizer cannot improve them. This is the paper's core contrast:
  // the synthesized wins (separability, factoring) are *global*
  // restructurings no local rule discovers.
  for (const auto &B : kernels::allKernels()) {
    Program Opt = B.Baseline;
    peephole(Opt);
    EXPECT_EQ(Opt.Instructions.size(), B.Baseline.Instructions.size())
        << B.Spec.name();
    // And it certainly cannot reach the synthesized instruction count for
    // the kernels where synthesis restructures.
    if (B.Synthesized.Instructions.size() < B.Baseline.Instructions.size())
      EXPECT_GT(Opt.Instructions.size(), B.Synthesized.Instructions.size())
          << B.Spec.name();
  }
}

TEST(Peephole, IdempotentOnOptimizedPrograms) {
  for (const auto &B : kernels::allKernels()) {
    Program Once = B.Synthesized;
    peephole(Once);
    Program Twice = Once;
    peephole(Twice);
    EXPECT_EQ(printProgram(Once), printProgram(Twice)) << B.Spec.name();
  }
}

TEST(Peephole, PreservesSemanticsOnRandomPrograms) {
  Rng R(99);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Program P;
    P.NumInputs = 2;
    P.VectorSize = 6;
    int Zero = P.internConstant(PlainConstant{{0}});
    int Two = P.internConstant(PlainConstant{{2}});
    for (int K = 0; K < 8; ++K) {
      int NumVals = P.numValues();
      int A = static_cast<int>(R.below(NumVals));
      int B = static_cast<int>(R.below(NumVals));
      switch (R.below(6)) {
      case 0:
        P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
        break;
      case 1:
        P.append(Instr::ctCt(Opcode::SubCtCt, A, B));
        break;
      case 2:
        P.append(Instr::rot(A, 1 + static_cast<int>(R.below(5))));
        break;
      case 3:
        P.append(Instr::ctPt(Opcode::AddCtPt, A, Zero));
        break;
      case 4:
        P.append(Instr::ctPt(Opcode::MulCtPt, A, Two));
        break;
      case 5:
        P.append(Instr::ctCt(Opcode::MulCtCt, A, B));
        break;
      }
    }
    Program Opt = P;
    peephole(Opt);
    EXPECT_LE(Opt.Instructions.size(), P.Instructions.size());
    expectSameBehavior(P, Opt, 100 + Trial);
  }
}

} // namespace
