//===- tests/backend_matrix_test.cpp - Cross-backend differential tests ---===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExecutorBackend contract, tested differentially: every bundled
/// kernel must decrypt to byte-equal outputs on every available backend
/// pair, every backend must build the ring the compiler selected and
/// reported, every encrypted backend's noise meter must read at least the
/// static noise bound's prediction, the keyless dry-run backend must serve
/// Engine and Server traffic without constructing a single KeyGenerator,
/// and the backend name must be part of the compile fingerprint (so the
/// Engine cache never mixes backends). Backends are selected by
/// CompileOptions::Backend.
///
//===----------------------------------------------------------------------===//

#include "backend/ExecutorBackend.h"
#include "bfv/KeyGenerator.h"
#include "driver/Driver.h"
#include "driver/Engine.h"
#include "driver/Server.h"
#include "kernels/Kernels.h"
#include "quill/CostModel.h"
#include "quill/Interpreter.h"
#include "quill/Noise.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace porcupine;
using namespace porcupine::driver;

namespace {

/// Bundled-program compiles on \p Backend: deterministic, no CEGIS.
CompileOptions backendOptions(const std::string &Backend) {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Opts.Backend = Backend;
  return Opts;
}

/// Deterministic small-valued inputs shaped for \p P; \p Salt varies the
/// pattern per kernel so slots are not accidentally symmetric.
std::vector<std::vector<uint64_t>> inputsFor(const quill::Program &P,
                                             size_t Salt) {
  std::vector<std::vector<uint64_t>> Inputs;
  for (int In = 0; In < P.NumInputs; ++In) {
    std::vector<uint64_t> V(P.VectorSize);
    for (size_t Slot = 0; Slot < V.size(); ++Slot)
      V[Slot] = (Salt * 31 + static_cast<size_t>(In) * 13 + Slot * 7 + 1) % 11;
    Inputs.push_back(std::move(V));
  }
  return Inputs;
}

/// An add, then \p Depth chained squarings of one input \p Width slots
/// wide.
quill::Program squaringChain(int Depth, size_t Width = 4) {
  quill::Program Chain;
  Chain.NumInputs = 1;
  Chain.VectorSize = Width;
  Chain.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 0));
  for (int I = 0; I < Depth; ++I)
    Chain.append(quill::Instr::ctCt(quill::Opcode::MulCtCt, Chain.outputId(),
                                    Chain.outputId()));
  return Chain;
}

quill::Program addProgram() {
  quill::Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 1));
  return P;
}

} // namespace

TEST(BackendRegistry, BundlesBfvAndDryRunAndRejectsUnknownNames) {
  const auto &Reg = backend::BackendRegistry::builtin();
  ASSERT_NE(Reg.find("bfv"), nullptr);
  ASSERT_NE(Reg.find("dryrun"), nullptr);
  EXPECT_EQ(Reg.find("no such backend"), nullptr);
  EXPECT_TRUE(Reg.find("bfv")->capabilities().Encrypted);
  EXPECT_FALSE(Reg.find("dryrun")->capabilities().Encrypted);
  EXPECT_NE(Reg.namesCsv().find("bfv"), std::string::npos);
  EXPECT_NE(Reg.namesCsv().find("dryrun"), std::string::npos);
}

TEST(BackendMatrix, EveryBundledKernelIsByteEqualAcrossBackends) {
  // The differential oracle of this suite: one compiled program, every
  // available backend, byte-equal outputs.
  std::vector<std::string> Backends =
      backend::BackendRegistry::builtin().names();
  ASSERT_GE(Backends.size(), 2u);

  Compiler Names;
  size_t Salt = 0;
  for (const std::string &Kernel : Names.registry().names()) {
    ++Salt;
    std::vector<uint64_t> Reference;
    std::string RefBackend;
    for (const std::string &B : Backends) {
      Compiler C(backendOptions(B));
      auto R = C.compile(Kernel);
      ASSERT_TRUE(R.hasValue()) << Kernel << ": " << R.status().toString();
      auto Out = C.execute(R->Program, inputsFor(R->Program, Salt));
      ASSERT_TRUE(Out.hasValue())
          << Kernel << " on " << B << ": " << Out.status().toString();
      if (RefBackend.empty()) {
        Reference = Out->Outputs;
        RefBackend = B;
        continue;
      }
      EXPECT_EQ(Out->Outputs, Reference)
          << Kernel << ": backend " << B << " disagrees with " << RefBackend;
    }
  }
}

TEST(BackendMatrix, OutputsThatOutliveTheRunAgreeAcrossBackends) {
  // "bfv" frees each value after its last use, but never the output: not
  // when it is an input, nor when later instructions still read it. Both
  // programs must decrypt to what the interpreter and "dryrun" give.
  using quill::Instr;
  using quill::Opcode;
  quill::Program OutputIsInput;
  OutputIsInput.NumInputs = 2;
  OutputIsInput.VectorSize = 4;
  OutputIsInput.append(Instr::ctCt(Opcode::AddCtCt, 0, 1));
  OutputIsInput.Output = 1;

  quill::Program OutputIsReadLater;
  OutputIsReadLater.NumInputs = 1;
  OutputIsReadLater.VectorSize = 4;
  // The square passes one value twice; it is the output, and the add and
  // the rotation read it after it is defined.
  int Square = OutputIsReadLater.append(Instr::ctCt(Opcode::MulCtCt, 0, 0));
  int Sum = OutputIsReadLater.append(Instr::ctCt(Opcode::AddCtCt, Square, 0));
  OutputIsReadLater.append(Instr::rot(Square, 1));
  OutputIsReadLater.append(Instr::ctCt(Opcode::MulCtCt, Sum, Sum));
  OutputIsReadLater.Output = Square;

  size_t Salt = 0;
  for (const quill::Program *P : {&OutputIsInput, &OutputIsReadLater}) {
    ASSERT_EQ(P->validate(), "");
    auto In = inputsFor(*P, ++Salt);
    const std::vector<uint64_t> Want = quill::interpret(*P, In, 65537);
    for (const std::string &B : {"bfv", "dryrun"}) {
      auto Out = Compiler(backendOptions(B)).execute(*P, In);
      ASSERT_TRUE(Out.hasValue()) << B << ": " << Out.status().toString();
      EXPECT_EQ(Out->Outputs, Want) << B << ": " << quill::printProgram(*P);
    }
  }
}

TEST(BackendMatrix, EveryRuntimeBuildsTheSelectedParameters) {
  // One parameter decision: the ring a backend's runtime builds is the one
  // Compiler::selectParameters and CompileResult::Params report, for every
  // bundled kernel and for an add followed by 0..6 chained squarings
  // (every rung of the table and past its top).
  std::vector<quill::Program> Chains;
  for (int Depth = 0; Depth <= 6; ++Depth)
    Chains.push_back(squaringChain(Depth));

  for (const std::string &B : backend::BackendRegistry::builtin().names()) {
    Compiler C(backendOptions(B));
    auto Check = [&](const quill::Program &P, size_t Reported,
                     const std::string &What) {
      auto Selected = C.selectParameters(P);
      ASSERT_TRUE(Selected.hasValue()) << Selected.status().toString();
      EXPECT_EQ(Selected->PolyDegree, Reported) << What;
      auto RT = C.instantiate({&P});
      ASSERT_TRUE(RT.hasValue()) << What << ": " << RT.status().toString();
      EXPECT_EQ(RT->polyDegree(), Selected->PolyDegree) << What << " on " << B;
      EXPECT_EQ(RT->slotCount(), Selected->PolyDegree / 2)
          << What << " on " << B;
    };
    for (const std::string &Kernel : C.registry().names()) {
      auto R = C.compile(Kernel);
      ASSERT_TRUE(R.hasValue()) << Kernel << ": " << R.status().toString();
      Check(R->Program, R->Params.PolyDegree, Kernel);
    }
    // The noise bound on the rungs BfvContext builds puts N=4096 up to
    // depth 2 and N=8192 beyond. SEAL's BFVDefault(4096) leaves its
    // ciphertexts 72 bits of Q, so on "seal" N=4096 holds up to depth 1.
    const size_t LastDepthAt4096 = B == "seal" ? 1 : 2;
    for (size_t Depth = 0; Depth < Chains.size(); ++Depth)
      Check(Chains[Depth], Depth <= LastDepthAt4096 ? 4096 : 8192,
            "depth-" + std::to_string(Depth) + " chain");
    // A depth-2 chain 3000 slots wide needs the 4096-slot row of N=8192.
    Check(squaringChain(2, 3000), 8192, "3000-slot depth-2 chain");
  }
}

TEST(BackendMatrix, PredictedBudgetIsAtMostTheMeasuredOne) {
  // The backend-generic half of the noise-bound check (backend_test checks
  // "bfv" after every instruction): on every encrypted backend and every
  // rung of the table, priced as that backend builds the rung, each
  // bundled kernel's and squaring chain's predicted final budget is at
  // most what the backend's meter reads, and a result the bound gives at
  // least the guard's bit decrypts right.
  const uint64_t Seed = testSeed(41);
  SeedReporter Report(Seed);
  Rng R(Seed);
  for (const std::string &Name : backend::BackendRegistry::builtin().names()) {
    const backend::ExecutorBackend &B =
        *backend::BackendRegistry::builtin().find(Name);
    if (!B.capabilities().Encrypted)
      continue;
    Compiler C(backendOptions(Name));
    std::vector<quill::Program> Programs;
    for (const std::string &Kernel : C.registry().names()) {
      auto Res = C.compile(Kernel);
      ASSERT_TRUE(Res.hasValue()) << Kernel << ": " << Res.status().toString();
      Programs.push_back(Res->Program);
    }
    for (int Depth = 0; Depth <= 7; ++Depth)
      Programs.push_back(squaringChain(Depth));
    backend::SessionSpec Spec;
    for (const quill::Program &P : Programs)
      Spec.Programs.push_back(&P);
    Spec.ExecutionSeed = Seed;

    for (const BfvParams &Rung : BfvContext::standardParams()) {
      Spec.Params = Rung;
      auto Exec = B.createExecutor(Spec);
      ASSERT_TRUE(Exec.hasValue()) << Exec.status().toString();
      const quill::NoiseParams Noise = B.noiseParams(Rung);
      const size_t Row = (*Exec)->slotCount();
      for (const quill::Program &P : Programs) {
        // Inputs and the plaintext model span the whole row, which is
        // where rotations wrap on a ciphertext.
        std::vector<backend::Value> In;
        std::vector<std::vector<uint64_t>> Plain;
        for (int I = 0; I < P.NumInputs; ++I) {
          Plain.push_back(R.vectorBelow(Rung.PlainModulus, P.VectorSize));
          Plain.back().resize(Row, 0);
          auto Ct = (*Exec)->encrypt(Plain.back());
          ASSERT_TRUE(Ct.hasValue()) << Ct.status().toString();
          In.push_back(Ct.take());
        }
        auto Out = (*Exec)->run(P, In);
        ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
        const double Predicted = quill::predictNoiseBudget(P, Noise);
        const std::string What = Name + " at N=" +
                                 std::to_string(Rung.PolyDegree) + ", " +
                                 std::to_string(Rung.coeffModulusBits()) +
                                 " bits: " + quill::printProgram(P);
        // SEAL's meter reports whole bits, flooring log2 Q and log2 nu
        // apart, so it may read up to one bit under the continuous budget
        // the bound predicts ("bfv"'s meter is continuous, and backend_test
        // holds it to the bound after every instruction).
        EXPECT_LE(Predicted, (*Exec)->noiseBudget(*Out) + 1.0) << What;
        quill::Program RowWide = P;
        RowWide.VectorSize = Row;
        if (Predicted >= NoiseGuardBits)
          EXPECT_EQ((*Exec)->decrypt(*Out, Row),
                    quill::interpret(RowWide, Plain, Rung.PlainModulus))
              << What;
      }
    }
  }
}

TEST(BackendMatrix, TracesAreSlotEqualAcrossBackends) {
  // Stronger than output equality: the decrypted slot state after every
  // instruction must match, so a bug cannot hide behind a compensating
  // later instruction. Gx rotates in both directions, which also proves
  // the dry-run interpreter wraps rotations at the batching row exactly
  // like BFV slot rotation does.
  std::vector<std::vector<std::vector<uint64_t>>> Traces;
  for (const std::string &B : backend::BackendRegistry::builtin().names()) {
    Compiler C(backendOptions(B));
    auto R = C.compile("Gx");
    ASSERT_TRUE(R.hasValue()) << R.status().toString();
    auto RT = C.instantiate({&R->Program});
    ASSERT_TRUE(RT.hasValue()) << B << ": " << RT.status().toString();
    std::vector<backend::Value> Vals;
    for (const auto &V : inputsFor(R->Program, 7)) {
      auto Ct = RT->encrypt(V);
      ASSERT_TRUE(Ct.hasValue()) << B << ": " << Ct.status().toString();
      Vals.push_back(*Ct);
    }
    // Decrypt every value the run produces, in instruction order.
    std::vector<std::vector<uint64_t>> Trace;
    auto Out =
        RT->executor().run(R->Program, Vals, [&](const backend::Value &V) {
          Trace.push_back(RT->decrypt(V, R->Program.VectorSize));
        });
    ASSERT_TRUE(Out.hasValue()) << B << ": " << Out.status().toString();
    EXPECT_EQ(Trace.size(), R->Program.Instructions.size());
    Traces.push_back(Trace);
  }
  ASSERT_GE(Traces.size(), 2u);
  for (size_t I = 1; I < Traces.size(); ++I)
    EXPECT_EQ(Traces[I], Traces[0]) << "trace " << I;
}

TEST(BackendMatrix, DryRunChargesTheCostModelAndRealBackendsDoNot) {
  Compiler Dry(backendOptions("dryrun"));
  auto R = Dry.compile("Dot Product");
  ASSERT_TRUE(R.hasValue()) << R.status().toString();
  auto In = inputsFor(R->Program, 3);

  auto Out = Dry.execute(R->Program, In);
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  const backend::ExecutorBackend *B =
      backend::BackendRegistry::builtin().find("dryrun");
  ASSERT_NE(B, nullptr);
  // One execution charges exactly one cost-model pass over the program.
  EXPECT_DOUBLE_EQ(Out->ChargedLatencyUs,
                   quill::CostModel(B->latencyTable()).latency(R->Program));
  EXPECT_FALSE(Out->Encrypted);
  EXPECT_EQ(Out->NoiseBudgetBits, 0.0);
  EXPECT_EQ(Out->PolyDegree, 0u);

  Compiler Bfv(backendOptions("bfv"));
  auto Enc = Bfv.execute(R->Program, In);
  ASSERT_TRUE(Enc.hasValue()) << Enc.status().toString();
  EXPECT_EQ(Enc->ChargedLatencyUs, 0.0); // Real backends spend wall-clock.
  EXPECT_EQ(Enc->Outputs, Out->Outputs);
}

TEST(BackendMatrix, DryRunServesEngineAndServerWithoutGeneratingKeys) {
  // KeyGenerator is the sole origin of secret/public/relin/Galois keys, so
  // a stable instance count across this whole block proves the dry-run
  // path is key-free end to end — including Server's batching tier.
  const uint64_t Before = KeyGenerator::instancesCreated();

  EngineOptions EO;
  EO.Defaults = backendOptions("dryrun");
  Engine E(EO);
  auto K = E.get("Dot Product");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  auto Out =
      (*K)->execute({{1, 2, 3, 4, 5, 6, 7, 8}, {1, 1, 1, 1, 1, 1, 1, 1}});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(Out->Outputs[0], 36u);
  EXPECT_FALSE(Out->Encrypted);

  ServerOptions SO;
  SO.NumShards = 1;
  SO.Engine.Defaults = backendOptions("dryrun");
  Server S(SO);
  for (int Req = 0; Req < 3; ++Req) {
    auto Resp = S.call({"Dot Product", "tenant-" + std::to_string(Req % 2),
                        {{1, 2, 3, 4, 5, 6, 7, 8}, {1, 1, 1, 1, 1, 1, 1, 1}}});
    ASSERT_TRUE(Resp.hasValue()) << Resp.status().toString();
    EXPECT_EQ(Resp->Outputs[0], 36u);
  }
  S.stop();

  EXPECT_EQ(KeyGenerator::instancesCreated(), Before);
}

TEST(BackendMatrix, BackendIsPartOfTheCompileFingerprint) {
  CompileOptions Bfv = backendOptions("bfv");
  CompileOptions Dry = backendOptions("dryrun");
  EXPECT_NE(Bfv.canonicalKey(), Dry.canonicalKey());
  EXPECT_NE(Bfv.fingerprint(), Dry.fingerprint());
  EXPECT_NE(compileFingerprint("Gx", Bfv), compileFingerprint("Gx", Dry));
}

TEST(BackendMatrix, EngineCacheNeverMixesBackends) {
  Engine E(EngineOptions{4, 1, backendOptions("bfv")});
  auto K = E.get("Gx");
  auto KD = E.get("Gx", backendOptions("dryrun"));
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  ASSERT_TRUE(KD.hasValue()) << KD.status().toString();
  EXPECT_NE(*K, *KD); // Same kernel, different backend: distinct entries.
  EXPECT_EQ(E.stats().Misses, 2u);
  EXPECT_EQ(E.size(), 2u);
}

TEST(BackendMatrix, UnknownBackendIsRejectedNamingTheAvailableSet) {
  CompileOptions Opts;
  Opts.Backend = "hypothetical";
  Compiler C(Opts);
  auto Out = C.execute(addProgram(), {{1, 2, 3, 4}, {5, 6, 7, 8}});
  ASSERT_FALSE(Out.hasValue());
  EXPECT_NE(Out.status().toString().find("unknown execution backend"),
            std::string::npos);
  EXPECT_NE(Out.status().toString().find("bfv"), std::string::npos);
}

TEST(BackendMatrix, RotationCapabilityQueryMatchesTheProgramAnalysis) {
  quill::Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  P.append(quill::Instr::rot(0, 2));
  P.append(quill::Instr::rot(1, -3));
  P.append(quill::Instr::rot(0, 2)); // Duplicate step: must deduplicate.
  EXPECT_EQ(porcupine::requiredRotations(P), (std::vector<int>{-3, 2}));
}
