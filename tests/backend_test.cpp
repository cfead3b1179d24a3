//===- tests/backend_test.cpp - Encrypted execution and codegen -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvExecutor.h"
#include "backend/LatencyProfiler.h"
#include "backend/ParameterSelector.h"
#include "backend/SealCodeGen.h"
#include "driver/Driver.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "quill/Noise.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <iterator>

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

/// The "bfv" backend: how the contexts built here are priced.
const backend::ExecutorBackend &bfvBackend() {
  return *backend::BackendRegistry::builtin().find("bfv");
}

/// The parameters selectParameters() picks for \p Programs on "bfv" under
/// the table's plaintext modulus.
BfvParams selectOnBfv(const std::vector<const Program *> &Programs) {
  return selectParameters(Programs, bfvBackend(), BfvParams().PlainModulus)
      .Params;
}

/// An add, then \p Depth chained squarings: a program on each rung of the
/// parameter table and past its top.
Program squaringChain(unsigned Depth) {
  Program Chain;
  Chain.NumInputs = 1;
  Chain.VectorSize = 4;
  Chain.append(Instr::ctCt(Opcode::AddCtCt, 0, 0));
  for (unsigned I = 0; I < Depth; ++I)
    Chain.append(
        Instr::ctCt(Opcode::MulCtCt, Chain.outputId(), Chain.outputId()));
  return Chain;
}

TEST(ParameterSelection, DepthLadder) {
  for (const auto &B : kernels::allKernels()) {
    BfvParams Params = selectOnBfv({&B.Synthesized});
    EXPECT_LE(Params.coeffModulusBits(),
              BfvContext::maxSecureCoeffBits(Params.PolyDegree))
        << B.Spec.name();
  }
  const Program Gx = kernels::gxKernel().Synthesized;
  const Program Harris = kernels::harrisApp().Synthesized;
  // Gradient kernels are multiply-free: smallest tier.
  EXPECT_EQ(selectOnBfv({&Gx}).PolyDegree, 4096u);
  // Harris needs the deep tier.
  EXPECT_EQ(selectOnBfv({&Harris}).PolyDegree, 8192u);
  // A program set takes its noisiest member's rung.
  EXPECT_EQ(selectOnBfv({&Gx, &Harris}).CoeffPrimeBits,
            selectOnBfv({&Harris}).CoeffPrimeBits);
}

TEST(ParameterSelection, BuiltContextHasTheSelectedModulus) {
  // What the compiler reports (Params.coeffModulusBits(), the sum of the
  // prime sizes) is the modulus a context built from the selection has,
  // for every bundled kernel and on every rung of the table.
  std::vector<Program> Programs;
  for (const auto &B : kernels::allKernels())
    Programs.push_back(B.Synthesized);
  for (unsigned Depth = 0; Depth <= 6; ++Depth)
    Programs.push_back(squaringChain(Depth));
  for (const Program &P : Programs) {
    BfvParams Params = selectOnBfv({&P});
    BfvContext Ctx(Params);
    const std::string Text = printProgram(P);
    EXPECT_EQ(Ctx.polyDegree(), Params.PolyDegree) << Text;
    EXPECT_EQ(Ctx.coeffModulusBits(), Params.coeffModulusBits()) << Text;
    EXPECT_LE(Params.coeffModulusBits(),
              BfvContext::maxSecureCoeffBits(Params.PolyDegree))
        << Text;
  }
}

TEST(ParameterSelection, ALargerPlainModulusPredictsFewerBits) {
  // The fresh noise and every multiply scale with t, so the session's
  // plaintext modulus prices the rungs: two squarings keep the margin at
  // N=4096 under t = 65537 but not under t = 786433.
  const Program Chain = squaringChain(2);
  ParameterSelection Small = selectParameters({&Chain}, bfvBackend(), 65537);
  ParameterSelection Large = selectParameters({&Chain}, bfvBackend(), 786433);
  EXPECT_EQ(Small.Params.PolyDegree, 4096u);
  EXPECT_EQ(Large.Params.PolyDegree, 8192u);
  quill::NoiseParams Noise = bfvBackend().noiseParams(Small.Params);
  Noise.PlainModulus = 65537;
  EXPECT_EQ(quill::predictNoiseBudget(Chain, Noise), Small.PredictedBudgetBits);
  Noise.PlainModulus = 786433;
  EXPECT_LT(quill::predictNoiseBudget(Chain, Noise),
            Small.PredictedBudgetBits - 10.0);
}

/// Bundled-program compiles under the default pipeline on "bfv".
driver::Compiler defaultPipeline() {
  driver::CompileOptions Opts;
  Opts.RunSynthesis = false;
  return driver::Compiler(Opts);
}

TEST(ParameterSelection, EveryKernelTakesTheCheapestCertifiedRung) {
  // The noise bound's choices on "bfv" for the default-pipeline programs.
  // Polynomial Regression and Variance left N=8192 / 175 bits for these
  // rungs; no kernel takes a larger rung than the old depth ladder gave.
  struct Pin {
    const char *Kernel;
    size_t N;
    unsigned Bits;
  };
  const Pin Pins[] = {
      {"Box Blur", 4096, 100},          {"Dot Product", 4096, 100},
      {"Hamming Distance", 4096, 100},  {"L2 Distance", 4096, 100},
      {"Linear Regression", 4096, 100}, {"Gx", 4096, 100},
      {"Gy", 4096, 100},                {"Polynomial Regression", 4096, 109},
      {"Variance", 4096, 109},          {"Roberts Cross", 4096, 109},
      {"Conv2D 5x5", 4096, 109},        {"Group-By Sum", 4096, 109},
      {"Perceptron 8-4-1", 8192, 218},
  };
  driver::Compiler C = defaultPipeline();
  ASSERT_EQ(C.registry().names().size(), std::size(Pins));
  for (const Pin &Want : Pins) {
    auto R = C.compile(Want.Kernel);
    ASSERT_TRUE(R.hasValue()) << Want.Kernel << ": " << R.status().toString();
    EXPECT_EQ(R->Params.PolyDegree, Want.N) << Want.Kernel;
    EXPECT_EQ(R->Params.coeffModulusBits(), Want.Bits) << Want.Kernel;
    EXPECT_GE(R->PredictedBudgetBits, NoiseGuardBits + NoiseMarginBits)
        << Want.Kernel;
  }
  auto Sobel = C.optimize(kernels::sobelApp().Synthesized);
  auto Harris = C.optimize(kernels::harrisApp().Synthesized);
  ASSERT_TRUE(Sobel.hasValue() && Harris.hasValue());
  EXPECT_EQ(selectOnBfv({&Sobel->Program}).coeffModulusBits(), 109u);
  EXPECT_EQ(selectOnBfv({&Sobel->Program}).PolyDegree, 4096u);
  EXPECT_EQ(selectOnBfv({&Harris->Program}).coeffModulusBits(), 175u);
}

//===----------------------------------------------------------------------===//
// The static noise bound against the runtime meter
//===----------------------------------------------------------------------===//

TEST(NoiseBound, PredictedBudgetIsAtMostTheMeasuredOneAfterEveryInstruction) {
  // On every rung of the table, for every bundled kernel and Sobel and
  // Harris under the default pipeline, the squaring chains, and seeded
  // random programs: the bound's budget for each value, inputs included,
  // is at most what the meter reads, and an output the bound gives at
  // least the guard's bit decrypts right on the whole batching row.
  const uint64_t Seed = testSeed(40);
  SeedReporter Report(Seed);
  Rng R(Seed);
  driver::Compiler C = defaultPipeline();
  std::vector<Program> Programs;
  for (const std::string &Name : C.registry().names()) {
    auto Res = C.compile(Name);
    ASSERT_TRUE(Res.hasValue()) << Name << ": " << Res.status().toString();
    Programs.push_back(Res->Program);
  }
  for (const Program &App :
       {kernels::sobelApp().Synthesized, kernels::harrisApp().Synthesized}) {
    auto Opt = C.optimize(App);
    ASSERT_TRUE(Opt.hasValue()) << Opt.status().toString();
    Programs.push_back(Opt->Program);
  }
  for (unsigned Depth = 0; Depth <= 7; ++Depth)
    Programs.push_back(squaringChain(Depth));
  for (int I = 0; I < 40; ++I)
    Programs.push_back(randomProgram(R, 4 + 4 * (I % 2), 6 + I % 7));
  std::vector<const Program *> All;
  for (const Program &P : Programs)
    All.push_back(&P);

  for (const BfvParams &Rung : BfvContext::standardParams()) {
    const std::string Where =
        "N=" + std::to_string(Rung.PolyDegree) + ", " +
        std::to_string(Rung.coeffModulusBits()) + "-bit Q: ";
    const NoiseParams Noise = bfvBackend().noiseParams(Rung);
    BfvContext Ctx(Rung);
    const uint64_t T = Ctx.plainModulus();
    BfvExecutor Exec(Ctx, R, All);
    for (const Program &P : Programs) {
      const std::vector<double> Predicted = predictNoiseBudgets(P, Noise);
      std::vector<SlotVector> Wide;
      std::vector<Ciphertext> Cts;
      std::vector<double> Measured;
      for (int In = 0; In < P.NumInputs; ++In) {
        SlotVector Row(Ctx.slotCount(), 0);
        SlotVector Slots = R.vectorBelow(T, P.VectorSize);
        std::copy(Slots.begin(), Slots.end(), Row.begin());
        Wide.push_back(std::move(Row));
        Cts.push_back(Exec.encryptInput(Slots));
        Measured.push_back(Exec.noiseBudget(Cts.back()));
      }
      Ciphertext Out = Exec.run(P, Cts, [&](const Ciphertext &Ct) {
        Measured.push_back(Exec.noiseBudget(Ct));
      });
      const std::string Text = Where + printProgram(P);
      ASSERT_EQ(Measured.size(), Predicted.size()) << Text;
      // The two sides compute log2(Q) apart, so an all-zero value (both at
      // the cap) may differ in the last bits.
      for (size_t V = 0; V < Measured.size(); ++V)
        EXPECT_LE(Predicted[V], Measured[V] + 1e-9)
            << "value " << V << " of " << Text;
      if (Predicted[P.outputId()] < NoiseGuardBits)
        continue;
      Program RowWide = P;
      RowWide.VectorSize = Ctx.slotCount();
      EXPECT_EQ(Exec.decryptOutput(Out, Ctx.slotCount()),
                interpret(RowWide, Wide, T))
          << Text;
    }
  }
}

TEST(NoiseBound, EveryKernelAtPlainModulus786433DecryptsLikeTheDryRun) {
  // "bfv" builds the plaintext modulus a session selects under, not only
  // 65537. At t = 786433 (prime, 1 mod 16384), every bundled kernel
  // decrypts byte-equal to the dry-run backend, and the bound's predicted
  // final budget at the selected parameters is at most the measured one.
  const uint64_t Seed = testSeed(43);
  SeedReporter Report(Seed);
  Rng R(Seed);
  constexpr uint64_t T = 786433;
  driver::CompileOptions Opts;
  Opts.RunSynthesis = false;
  Opts.Synthesis.PlainModulus = T;
  Opts.ExecutionSeed = Seed;
  driver::CompileOptions Dry = Opts;
  Dry.Backend = "dryrun";
  driver::Compiler C(Opts);
  for (const std::string &Name : C.registry().names()) {
    auto Res = C.compile(Name);
    ASSERT_TRUE(Res.hasValue()) << Name << ": " << Res.status().toString();
    const Program &P = Res->Program;
    std::vector<std::vector<uint64_t>> In;
    for (int I = 0; I < P.NumInputs; ++I)
      In.push_back(R.vectorBelow(T, P.VectorSize));
    auto Enc = C.execute(P, In);
    ASSERT_TRUE(Enc.hasValue()) << Name << ": " << Enc.status().toString();
    auto Plain = driver::Compiler(Dry).execute(P, In);
    ASSERT_TRUE(Plain.hasValue()) << Name << ": " << Plain.status().toString();
    EXPECT_EQ(Enc->PolyDegree, Res->Params.PolyDegree) << Name;
    EXPECT_EQ(Enc->Outputs, Plain->Outputs) << Name;
    EXPECT_LE(Res->PredictedBudgetBits, Enc->NoiseBudgetBits + 1e-9) << Name;
  }
}

} // namespace
