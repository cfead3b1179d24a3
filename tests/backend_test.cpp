//===- tests/backend_test.cpp - Encrypted execution and codegen -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvExecutor.h"
#include "backend/LatencyProfiler.h"
#include "backend/ParameterSelector.h"
#include "backend/SealCodeGen.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::kernels;
using namespace porcupine::quill;

namespace {

/// Small-but-real parameters for execution tests.
BfvParams testParams() {
  BfvParams P;
  P.PolyDegree = 1024;
  P.PlainModulus = 65537;
  P.CoeffPrimeBits = {40, 40, 40};
  P.DecompWidth = 16;
  return P;
}

//===----------------------------------------------------------------------===//
// Executor vs interpreter: the stack's central soundness property
//===----------------------------------------------------------------------===//

TEST(Executor, RequiredRotationsDeduplicates) {
  Program P = gxKernel().Synthesized;
  auto Steps = requiredRotations(P);
  EXPECT_EQ(Steps, (std::vector<int>{-5, -1, 1, 5}));
}

TEST(Executor, EncryptedExecutionMatchesInterpreter) {
  BfvContext Ctx(testParams());
  Rng R(31);
  uint64_t T = Ctx.plainModulus();

  // Run three structurally different kernels end-to-end encrypted.
  for (KernelBundle (*Make)() :
       {boxBlurKernel, dotProductKernel, polyRegressionKernel}) {
    KernelBundle B = Make();
    std::vector<const Program *> Programs = {&B.Baseline, &B.Synthesized};
    BfvExecutor Exec(Ctx, R, Programs);

    auto Inputs = B.Spec.randomInputs(R, T, /*Bound=*/64);
    std::vector<Ciphertext> Encrypted;
    for (const auto &In : Inputs)
      Encrypted.push_back(Exec.encryptInput(In));

    for (const Program *P : Programs) {
      // The interpreter models a full batching row.
      Program RowWide = *P;
      RowWide.VectorSize = Ctx.slotCount();
      std::vector<SlotVector> WideInputs;
      for (const auto &In : Inputs) {
        SlotVector Wide(Ctx.slotCount(), 0);
        std::copy(In.begin(), In.end(), Wide.begin());
        WideInputs.push_back(std::move(Wide));
      }
      SlotVector Want = interpret(RowWide, WideInputs, T);

      Ciphertext Out = Exec.run(*P, Encrypted);
      EXPECT_GT(Exec.noiseBudget(Out), 0.0) << B.Spec.name();
      auto Got = Exec.decryptOutput(Out, B.Spec.vectorSize());
      for (size_t J = 0; J < B.Spec.vectorSize(); ++J)
        if (B.Spec.outputSlotMatters(J))
          EXPECT_EQ(Got[J], Want[J]) << B.Spec.name() << " slot " << J;
    }
  }
}

TEST(Executor, RandomProgramsAgreeWithInterpreter) {
  // Property test: random straight-line Quill programs executed over
  // encrypted data agree with the plaintext behavioral model.
  BfvContext Ctx(testParams());
  Rng R(32);
  uint64_t T = Ctx.plainModulus();
  size_t Width = 16;

  for (int Trial = 0; Trial < 6; ++Trial) {
    Program P;
    P.NumInputs = 2;
    P.VectorSize = Width;
    int Splat = P.internConstant(PlainConstant{{3}});
    int MulBudget = 1; // Keep multiplicative depth affordable.
    for (int K = 0; K < 6; ++K) {
      int NumVals = P.numValues();
      int A = static_cast<int>(R.below(NumVals));
      int B = static_cast<int>(R.below(NumVals));
      switch (R.below(MulBudget > 0 ? 5 : 4)) {
      case 0:
        P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
        break;
      case 1:
        P.append(Instr::ctCt(Opcode::SubCtCt, A, B));
        break;
      case 2:
        P.append(Instr::rot(A, 1 + static_cast<int>(R.below(Width - 1))));
        break;
      case 3:
        P.append(Instr::ctPt(Opcode::AddCtPt, A, Splat));
        break;
      case 4:
        P.append(Instr::ctCt(Opcode::MulCtCt, A, B));
        --MulBudget;
        break;
      }
    }
    ASSERT_EQ(P.validate(), "");

    BfvExecutor Exec(Ctx, R, {&P});
    std::vector<SlotVector> Inputs;
    std::vector<Ciphertext> Encrypted;
    for (int I = 0; I < 2; ++I) {
      Inputs.push_back(R.vectorBelow(64, Width));
      Encrypted.push_back(Exec.encryptInput(Inputs.back()));
    }
    Program RowWide = P;
    RowWide.VectorSize = Ctx.slotCount();
    std::vector<SlotVector> WideInputs;
    for (const auto &In : Inputs) {
      SlotVector Wide(Ctx.slotCount(), 0);
      std::copy(In.begin(), In.end(), Wide.begin());
      WideInputs.push_back(std::move(Wide));
    }
    SlotVector Want = interpret(RowWide, WideInputs, T);
    auto Got = Exec.decryptOutput(Exec.run(P, Encrypted), Ctx.slotCount());
    EXPECT_EQ(Got, Want) << "trial " << Trial;
  }
}

TEST(Executor, HoistedRotationScheduleMatchesInterpreter) {
  // The executor hoists each rotated value once and shares that state
  // across the value's rotations. Cover the schedule's edge cases: steps
  // whose Galois element is 1 (0 and the row size), repeated identical
  // steps, two sources interleaved, a source used after its last rotation,
  // and a rotation of a rotation's (NTT-form) result. Every intermediate
  // value must decrypt to the interpreter's.
  BfvContext Ctx(testParams());
  Rng R(34);
  uint64_t T = Ctx.plainModulus();
  int Row = static_cast<int>(Ctx.slotCount());

  Program P;
  P.NumInputs = 2;
  P.VectorSize = Ctx.slotCount();
  int Id0 = P.append(Instr::rot(0, 0));
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(1, 2));
  int IdRow = P.append(Instr::rot(1, Row));
  int A2 = P.append(Instr::rot(0, 3));
  int C = P.append(Instr::rot(1, -1));
  int D = P.append(Instr::rot(0, -5));
  int Sum = P.append(Instr::ctCt(Opcode::AddCtCt, A, A2));
  Sum = P.append(Instr::ctCt(Opcode::AddCtCt, Sum, B));
  Sum = P.append(Instr::ctCt(Opcode::SubCtCt, Sum, C));
  Sum = P.append(Instr::ctCt(Opcode::AddCtCt, Sum, D));
  Sum = P.append(Instr::ctCt(Opcode::AddCtCt, Sum, 0));
  Sum = P.append(Instr::ctCt(Opcode::AddCtCt, Sum, Id0));
  Sum = P.append(Instr::ctCt(Opcode::AddCtCt, Sum, IdRow));
  P.append(Instr::rot(Sum, 7));
  P.append(Instr::rot(Sum, 1));

  BfvExecutor Exec(Ctx, R, {&P});
  std::vector<SlotVector> Inputs = {R.vectorBelow(64, P.VectorSize),
                                    R.vectorBelow(64, P.VectorSize)};
  std::vector<Ciphertext> Encrypted;
  for (const SlotVector &In : Inputs)
    Encrypted.push_back(Exec.encryptInput(In));
  std::vector<SlotVector> Want = interpretAll(P, Inputs, T);

  size_t K = 0;
  Ciphertext Out = Exec.run(P, Encrypted, [&](const Ciphertext &Ct) {
    EXPECT_EQ(Exec.decryptOutput(Ct, P.VectorSize),
              Want[static_cast<size_t>(P.valueOf(K))])
        << "instruction " << K;
    ++K;
  });
  EXPECT_EQ(K, P.Instructions.size());
  EXPECT_EQ(Exec.decryptOutput(Out, P.VectorSize), Want.back());
}

TEST(Executor, TraceExposesIntermediateStates) {
  BfvContext Ctx(testParams());
  Rng R(33);
  KernelBundle B = boxBlurKernel();
  BfvExecutor Exec(Ctx, R, {&B.Synthesized});
  auto Inputs = B.Spec.randomInputs(R, Ctx.plainModulus(), 16);
  std::vector<std::vector<uint64_t>> Trace;
  Exec.run(B.Synthesized, {Exec.encryptInput(Inputs[0])},
           [&](const Ciphertext &Ct) {
             Trace.push_back(Exec.decryptOutput(Ct, B.Spec.vectorSize()));
           });
  ASSERT_EQ(Trace.size(), B.Synthesized.Instructions.size());
  // First instruction is rot(c0, 1): slot 0 holds input slot 1.
  EXPECT_EQ(Trace[0][0], Inputs[0][1]);
}

//===----------------------------------------------------------------------===//
// Code generation
//===----------------------------------------------------------------------===//

TEST(CodeGen, EmitsSealCallsWithRelinearization) {
  KernelBundle B = polyRegressionKernel();
  std::string Code = emitSealCode(B.Synthesized, {"poly_reg", true});
  EXPECT_NE(Code.find("ev.multiply("), std::string::npos);
  EXPECT_NE(Code.find("ev.relinearize_inplace("), std::string::npos);
  EXPECT_NE(Code.find("void poly_reg("), std::string::npos);
  // One relinearization per ct-ct multiply.
  size_t Muls = 0, Relins = 0;
  for (size_t Pos = 0; (Pos = Code.find("ev.multiply(", Pos)) != std::string::npos;
       ++Pos)
    ++Muls;
  for (size_t Pos = 0;
       (Pos = Code.find("ev.relinearize_inplace(", Pos)) != std::string::npos;
       ++Pos)
    ++Relins;
  EXPECT_EQ(Muls, Relins);
  EXPECT_EQ(Muls, 2u);
}

TEST(CodeGen, EmitsRotationsAndConstants) {
  KernelBundle B = gxKernel().Synthesized.Constants.empty()
                       ? gxKernel()
                       : gxKernel();
  std::string Code = emitSealCode(B.Synthesized, {"gx", true});
  EXPECT_NE(Code.find("ev.rotate_rows("), std::string::npos);
  EXPECT_NE(Code.find("ev.sub("), std::string::npos);
  EXPECT_NE(Code.find("result = c"), std::string::npos);
}

TEST(CodeGen, HeaderCommentReportsAnalyses) {
  std::string Code = emitSealCode(boxBlurKernel().Synthesized);
  EXPECT_NE(Code.find("4 instructions"), std::string::npos);
  EXPECT_NE(Code.find("multiplicative depth 0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Latency profiling
//===----------------------------------------------------------------------===//

TEST(Profiler, LatencyOrderingMatchesHeExpectations) {
  BfvContext Ctx(testParams());
  Rng R(34);
  auto Table = profileLatencies(Ctx, R, 3);
  // The relative cost structure the paper's cost model relies on:
  // ct-ct multiply >> rotate and plain multiply >> add/sub.
  EXPECT_GT(Table.MulCtCt, Table.RotCt);
  EXPECT_GT(Table.RotCt, Table.AddCtCt);
  EXPECT_GT(Table.MulCtPt, Table.AddCtCt);
  EXPECT_GT(Table.AddCtCt, 0.0);
}

} // namespace

namespace {

TEST(ParameterSelection, DepthLadder) {
  for (const auto &B : kernels::allKernels()) {
    auto Choice = selectParameters(B.Synthesized);
    EXPECT_EQ(Choice.MultiplicativeDepth,
              static_cast<unsigned>(
                  programMultiplicativeDepth(B.Synthesized)));
    EXPECT_LE(Choice.CoeffModulusBits,
              BfvContext::maxSecureCoeffBits(Choice.PolyDegree));
  }
  // Gradient kernels are multiply-free: smallest tier.
  EXPECT_EQ(selectParameters(kernels::gxKernel().Synthesized).PolyDegree,
            4096u);
  // Harris needs the deep tier.
  EXPECT_EQ(selectParameters(kernels::harrisApp().Synthesized).PolyDegree,
            8192u);
}

TEST(ParameterSelection, ContextMatchesChoice) {
  auto P = kernels::polyRegressionKernel().Synthesized;
  BfvContext Ctx = contextForProgram(P);
  auto Choice = selectParameters(P);
  EXPECT_EQ(Ctx.polyDegree(), Choice.PolyDegree);
  EXPECT_LE(Ctx.coeffModulusBits(),
            BfvContext::maxSecureCoeffBits(Ctx.polyDegree()));
}

} // namespace
