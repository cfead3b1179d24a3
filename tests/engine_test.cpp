//===- tests/engine_test.cpp - Unit tests for the serving Engine ----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver::Engine contract: a second get() with equal options is a
/// cache hit (no synthesis re-run), fingerprints are canonical (field
/// assignment order never matters, every semantic change does), LRU
/// eviction honors capacity and recency, artifacts round-trip through disk
/// and execute correctly, one CompiledKernel serves concurrent threads
/// through its runtime pool, and runtimes on one parameter set share one
/// BFV context. Plus the JSON layer underneath artifacts (escaping, strict
/// parsing) and the printProgram/parseProgram round-trip over every
/// bundled kernel.
///
//===----------------------------------------------------------------------===//

#include "bfv/BfvContext.h"
#include "driver/Artifact.h"
#include "driver/Batcher.h"
#include "driver/Engine.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Kernels.h"
#include "quill/Interpreter.h"
#include "support/Json.h"
#include "support/Random.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

using namespace porcupine;
using namespace porcupine::driver;
using namespace porcupine::kernels;

namespace {

constexpr uint64_t T = 65537;

/// A one-component kernel (slotwise a + b) that synthesizes in
/// microseconds, so this suite can exercise the RunSynthesis path and stay
/// in the fast label.
KernelSpec addSpec(size_t Width = 4) {
  DataLayout Layout;
  Layout.Description = "slotwise a + b";
  return makeKernelSpec("add", 2, Width, Layout,
                        [Width](const auto &In, auto Konst) {
                          (void)Konst;
                          std::decay_t<decltype(In[0])> Out;
                          for (size_t I = 0; I < Width; ++I)
                            Out.push_back(In[0][I] + In[1][I]);
                          return Out;
                        });
}

synth::Sketch addSketch(size_t Width = 4) {
  synth::Sketch Sk;
  Sk.NumInputs = 2;
  Sk.VectorSize = Width;
  Sk.Menu = {synth::Component::ctCt(quill::Opcode::AddCtCt,
                                    synth::OperandKind::Ct,
                                    synth::OperandKind::Ct)};
  return Sk;
}

quill::Program addProgram(size_t Width = 4) {
  quill::Program P;
  P.NumInputs = 2;
  P.VectorSize = Width;
  P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 1));
  return P;
}

KernelRegistry addRegistry(const std::string &Name = "My Add") {
  KernelRegistry R;
  KernelBundle Add;
  Add.Spec = addSpec();
  Add.Sketch = addSketch();
  Add.Synthesized = addProgram();
  EXPECT_TRUE(R.add(Name, Add).ok());
  return R;
}

/// Bundled-program-only options: deterministic and fast for cache tests
/// that do not need CEGIS.
CompileOptions bundledOptions() {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  return Opts;
}

/// bundledOptions() on the keyless dry-run backend: the fast execution
/// path for tests whose subject is the cache, not the cryptography.
CompileOptions dryrunOptions() {
  CompileOptions Opts = bundledOptions();
  Opts.Backend = "dryrun";
  return Opts;
}

/// Small deterministic inputs shaped for \p P.
std::vector<std::vector<uint64_t>> slotPattern(const quill::Program &P) {
  std::vector<std::vector<uint64_t>> In(P.NumInputs,
                                        std::vector<uint64_t>(P.VectorSize));
  for (size_t V = 0; V < In.size(); ++V)
    for (size_t I = 0; I < P.VectorSize; ++I)
      In[V][I] = (3 * I + V) % 7;
  return In;
}

/// Writes \p Doc to \p Path: the hand-edited artifacts the loader is
/// tested on.
void writeFile(const std::string &Path, const std::string &Doc) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
}

bool sameProgram(const quill::Program &A, const quill::Program &B) {
  return A.NumInputs == B.NumInputs && A.VectorSize == B.VectorSize &&
         A.Constants == B.Constants && A.Instructions == B.Instructions &&
         A.outputId() == B.outputId();
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, StableAcrossAssignmentOrder) {
  CompileOptions A;
  A.Pipeline = "peephole,cse";
  A.Synthesis.TimeoutSeconds = 7.5;
  A.Codegen.FunctionName = "serve";

  CompileOptions B;
  B.Codegen.FunctionName = "serve";
  B.Synthesis.TimeoutSeconds = 7.5;
  B.Pipeline = "peephole,cse";

  EXPECT_EQ(A.canonicalKey(), B.canonicalKey());
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_EQ(compileFingerprint("k", A), compileFingerprint("k", B));
}

TEST(Fingerprint, EverySemanticFieldChangesIt) {
  CompileOptions Base;
  std::string BaseFp = Base.fingerprint();
  // A representative sample across option groups; each must perturb the
  // fingerprint.
  CompileOptions O1 = Base;
  O1.RunSynthesis = false;
  CompileOptions O2 = Base;
  O2.Synthesis.MaxComponents += 1;
  CompileOptions O3 = Base;
  O3.Synthesis.Latency.RotCt += 1.0;
  CompileOptions O4 = Base;
  O4.Codegen.FunctionName = "other";
  CompileOptions O5 = Base;
  O5.ExecutionSeed += 1;
  CompileOptions O7 = Base;
  O7.Pipeline = "peephole";
  CompileOptions O8 = Base;
  O8.Synthesis.Latency.RelinCt += 1.0;
  for (const CompileOptions *O :
       {&O1, &O2, &O3, &O4, &O5, &O7, &O8})
    EXPECT_NE(O->fingerprint(), BaseFp);
  // And the kernel name is part of the pair fingerprint.
  EXPECT_NE(compileFingerprint("a", Base), compileFingerprint("b", Base));
}

TEST(Fingerprint, HostileFunctionNamesCannotForgeFields) {
  CompileOptions A;
  A.Codegen.FunctionName = "f\";run_synthesis=0;x=\"";
  CompileOptions B;
  EXPECT_NE(A.canonicalKey(), B.canonicalKey());
  // The forged text stays inside the quoted value.
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

//===----------------------------------------------------------------------===//
// Engine cache
//===----------------------------------------------------------------------===//

TEST(Engine, SecondGetIsACacheHitWithNoSynthesisRerun) {
  KernelRegistry R = addRegistry();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = true; // Real CEGIS on the first get()...
  Engine E(EO, &R);

  auto First = E.get("my add");
  ASSERT_TRUE(First.hasValue()) << First.status().toString();
  EXPECT_TRUE((*First)->result().FromSynthesis);
  EngineStats S1 = E.stats();
  EXPECT_EQ(S1.Misses, 1u);
  EXPECT_EQ(S1.Compiles, 1u);

  // ...and none on the second: same handle, no new compile.
  auto Second = E.get("My Add");
  ASSERT_TRUE(Second.hasValue()) << Second.status().toString();
  EXPECT_EQ(*First, *Second);
  EngineStats S2 = E.stats();
  EXPECT_EQ(S2.Hits, 1u);
  EXPECT_EQ(S2.Misses, 1u);
  EXPECT_EQ(S2.Compiles, 1u);
}

TEST(Engine, DifferentOptionsAreDifferentEntries) {
  Engine E(EngineOptions{4, 1, bundledOptions()});
  auto A = E.get("gx");
  CompileOptions Other = bundledOptions();
  Other.Codegen.FunctionName = "different";
  auto B = E.get("gx", Other);
  ASSERT_TRUE(A.hasValue() && B.hasValue());
  EXPECT_NE(*A, *B);
  EXPECT_EQ(E.stats().Misses, 2u);
  EXPECT_EQ(E.size(), 2u);
}

TEST(Engine, LruEvictionHonorsCapacityAndRecency) {
  Engine E(EngineOptions{2, 1, bundledOptions()});
  ASSERT_TRUE(E.get("gx").hasValue());       // Cache: [gx]
  ASSERT_TRUE(E.get("gy").hasValue());       // Cache: [gy, gx]
  ASSERT_TRUE(E.get("gx").hasValue());       // Touch: [gx, gy]
  ASSERT_TRUE(E.get("box blur").hasValue()); // Evicts gy: [box blur, gx]
  EXPECT_EQ(E.size(), 2u);
  EXPECT_EQ(E.stats().Evictions, 1u);

  EngineStats Before = E.stats();
  ASSERT_TRUE(E.get("gx").hasValue()); // Still cached.
  EXPECT_EQ(E.stats().Hits, Before.Hits + 1);
  ASSERT_TRUE(E.get("gy").hasValue()); // Was evicted: a miss again.
  EXPECT_EQ(E.stats().Misses, Before.Misses + 1);
}

TEST(Engine, EvictedHandlesStayValid) {
  Engine E(EngineOptions{1, 1, dryrunOptions()});
  auto A = E.get("gx");
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(E.get("gy").hasValue()); // Evicts gx.
  EXPECT_EQ(E.size(), 1u);
  // The evicted kernel still executes (shared ownership).
  auto Out = (*A)->execute(
      {std::vector<uint64_t>((*A)->program().VectorSize, 1)});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
}

TEST(Engine, FailuresAreReportedAndNeverCached) {
  KernelRegistry R;
  KernelBundle Bare;
  Bare.Spec = addSpec();
  Bare.Sketch = addSketch();
  // No bundled program: RunSynthesis=false cannot compile this.
  ASSERT_TRUE(R.add("bare", Bare).ok());
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);

  auto First = E.get("bare");
  ASSERT_FALSE(First.hasValue());
  EXPECT_EQ(E.size(), 0u); // Not cached...
  EXPECT_EQ(E.stats().CompileFailures, 1u);
  auto Second = E.get("bare"); // ...so the retry really re-attempts.
  ASSERT_FALSE(Second.hasValue());
  EXPECT_EQ(E.stats().CompileFailures, 2u);
  EXPECT_EQ(E.stats().Hits, 0u);
}

TEST(Engine, UnknownKernelNamesFailLikeTheCompiler) {
  Engine E;
  auto K = E.get("no such kernel");
  ASSERT_FALSE(K.hasValue());
  EXPECT_EQ(E.stats().Misses, 0u); // Name resolution is not a cache miss.
}

TEST(Engine, ClearDropsEntriesAndStats) {
  Engine E(EngineOptions{4, 1, bundledOptions()});
  ASSERT_TRUE(E.get("gx").hasValue());
  E.clear();
  EXPECT_EQ(E.size(), 0u);
  EXPECT_EQ(E.stats().Misses, 0u);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

TEST(CompiledKernel, DryRunBackendMatchesEncryptedExecution) {
  KernelRegistry R = addRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  auto KD = E.get("my add", dryrunOptions());
  ASSERT_TRUE(KD.hasValue()) << KD.status().toString();
  EXPECT_NE(*K, *KD); // Distinct backends are distinct cache entries.

  std::vector<std::vector<uint64_t>> Inputs = {{1, 2, 3, 4}, {10, 20, 30, 40}};
  auto Plain = (*KD)->execute(Inputs);
  auto Enc = (*K)->execute(Inputs);
  ASSERT_TRUE(Plain.hasValue()) << Plain.status().toString();
  ASSERT_TRUE(Enc.hasValue()) << Enc.status().toString();
  EXPECT_EQ(Plain->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
  EXPECT_EQ(Enc->Outputs, Plain->Outputs);
  EXPECT_FALSE(Plain->Encrypted);
  EXPECT_GT(Plain->ChargedLatencyUs, 0.0);
  EXPECT_TRUE(Enc->Encrypted);
  EXPECT_GT(Enc->NoiseBudgetBits, 0.0);
}

TEST(CompiledKernel, EveryEntryPointAgreesOnOneCall) {
  // Fresh runtimes from one ExecutionSeed draw the same keys and the same
  // encryption noise, so all four entry points — each over its own fresh
  // runtime — must return the very same outcome.
  const KernelBundle &Dot = **KernelRegistry::builtin().find("dot product");
  Rng R(0xd07);
  const std::vector<std::vector<uint64_t>> In = Dot.Spec.randomInputs(R, T);
  for (const char *Backend : {"bfv", "dryrun"}) {
    CompileOptions Opts = bundledOptions();
    Opts.Backend = Backend;
    Engine E1(EngineOptions{4, 1, Opts}), E2(EngineOptions{4, 1, Opts}),
        E3(EngineOptions{4, 1, Opts});
    auto K1 = E1.get("dot product"), K2 = E2.get("dot product"),
         K3 = E3.get("dot product");
    ASSERT_TRUE(K1.hasValue() && K2.hasValue() && K3.hasValue()) << Backend;
    const quill::Program &P = (*K1)->program();

    auto Direct = Compiler(Opts).execute(P, In);
    auto One = (*K1)->execute(In);
    auto Many = (*K2)->executeMany({In});
    BatchPlan Plan = BatchPlan::analyze(**K3, Dot.Spec, /*MaxBatch=*/64);
    auto Packed = (*K3)->executePacked(Plan.pack({&In}));
    ASSERT_TRUE(Direct.hasValue()) << Direct.status().toString();
    ASSERT_TRUE(One.hasValue()) << One.status().toString();
    ASSERT_TRUE(Many.hasValue()) << Many.status().toString();
    ASSERT_TRUE(Packed.hasValue()) << Packed.status().toString();
    ASSERT_EQ(Many->size(), 1u);
    ASSERT_EQ(Packed->Outputs.size(), Plan.rowWidth());
    Packed->Outputs.resize(P.VectorSize); // Window 0, unmasked.

    // Slot 0 carries the dot product; the rest hold row-wide scratch.
    EXPECT_EQ(Direct->Outputs[0], quill::interpret(P, In, T)[0]) << Backend;
    if (Direct->Encrypted) {
      EXPECT_EQ(Direct->PolyDegree, 4096u);
      EXPECT_GT(Direct->NoiseBudgetBits, 1.0);
    } else {
      EXPECT_GT(Direct->ChargedLatencyUs, 0.0);
    }
    for (const ExecuteOutcome *Other : {&*One, &(*Many)[0], &*Packed}) {
      EXPECT_EQ(Other->Outputs, Direct->Outputs) << Backend;
      EXPECT_EQ(Other->NoiseBudgetBits, Direct->NoiseBudgetBits) << Backend;
      EXPECT_EQ(Other->PolyDegree, Direct->PolyDegree) << Backend;
      EXPECT_EQ(Other->ChargedLatencyUs, Direct->ChargedLatencyUs) << Backend;
    }
  }
}

TEST(CompiledKernel, ExecuteManyValidatesAtomicallyWithTheBatchIndex) {
  KernelRegistry R = addRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue());

  auto Bad = (*K)->executeMany(
      {{{1, 2, 3, 4}, {1, 2, 3, 4}},
       {{1, 2, 3, 4}}}); // Item 1: one input missing.
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.status().toString().find("batch item 1"), std::string::npos);

  auto Empty = (*K)->executeMany({});
  ASSERT_TRUE(Empty.hasValue());
  EXPECT_TRUE(Empty->empty());
}

TEST(CompiledKernel, FourThreadsShareOneKernelCorrectly) {
  KernelRegistry R = addRegistry();
  // Pool of 2 runtimes for 4 threads: forces both lazy construction and
  // blocking checkout under contention.
  Engine E(EngineOptions{4, 2, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  const CompiledKernel &Kernel = **K;

  constexpr int Threads = 4;
  constexpr int CallsPerThread = 3;
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti) {
    Pool.emplace_back([&, Ti] {
      std::vector<std::vector<std::vector<uint64_t>>> Batch;
      for (int C = 0; C < CallsPerThread; ++C) {
        uint64_t Base = static_cast<uint64_t>(Ti * 100 + C * 10);
        Batch.push_back({{Base + 1, Base + 2, Base + 3, Base + 4},
                         {5, 6, 7, 8}});
      }
      auto Out = Kernel.executeMany(Batch);
      if (!Out) {
        Errors[Ti] = Out.status().toString();
        return;
      }
      for (int C = 0; C < CallsPerThread; ++C) {
        auto Want = quill::interpret(Kernel.program(), Batch[C], T);
        if ((*Out)[C].Outputs != Want) {
          Errors[Ti] = "thread " + std::to_string(Ti) + " call " +
                       std::to_string(C) + " decrypted the wrong result";
          return;
        }
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  // The pool never grew beyond its cap.
  EXPECT_LE(Kernel.runtimesBuilt(), 2u);
  EXPECT_GE(Kernel.runtimesBuilt(), 1u);
}

TEST(Runtime, RuntimesOnOneParameterSetShareOneContext) {
  // "bfv" builds one context per parameter set and shares it with every
  // live runtime on that set, whatever program, kernel, Engine or
  // execution seed the runtime serves.
  const uint64_t Start = BfvContext::instancesCreated();
  auto Built = [&] { return BfvContext::instancesCreated() - Start; };

  // Two runtimes of one program, and one under another execution seed:
  // three key sets over one context.
  quill::Program P = addProgram();
  CompileOptions Seeded = bundledOptions();
  Seeded.ExecutionSeed = 7;
  auto R1 = Compiler(bundledOptions()).instantiate({&P});
  auto R2 = Compiler(bundledOptions()).instantiate({&P});
  auto R3 = Compiler(Seeded).instantiate({&P});
  ASSERT_TRUE(R1.hasValue() && R2.hasValue() && R3.hasValue());
  EXPECT_EQ(Built(), 1u);
  for (const Runtime *RT : {&*R1, &*R2, &*R3}) {
    auto Out = RT->execute(P, {{1, 2, 3, 4}, {1, 2, 3, 4}}, P.VectorSize);
    ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
    EXPECT_EQ(Out->Outputs, (std::vector<uint64_t>{2, 4, 6, 8}));
  }

  // Box Blur and Dot Product select the same parameters as the add
  // (4096/100): their Engine runtimes build no context.
  Engine E(EngineOptions{4, 1, bundledOptions()});
  auto Run = [&](const char *Name, unsigned WantBits) {
    auto K = E.get(Name);
    ASSERT_TRUE(K.hasValue()) << K.status().toString();
    EXPECT_EQ((*K)->result().Params.coeffModulusBits(), WantBits) << Name;
    const quill::Program &Q = (*K)->program();
    const std::vector<std::vector<uint64_t>> In = slotPattern(Q);
    auto Out = (*K)->execute(In);
    ASSERT_TRUE(Out.hasValue()) << Name << ": " << Out.status().toString();
    auto Dry = Compiler(dryrunOptions()).execute(Q, In);
    ASSERT_TRUE(Dry.hasValue()) << Dry.status().toString();
    EXPECT_EQ(Out->Outputs, Dry->Outputs) << Name;
  };
  Run("box blur", 100);
  Run("dot product", 100);
  EXPECT_EQ(Built(), 1u);

  // A program on another parameter set builds its own.
  Run("polynomial regression", 109);
  EXPECT_EQ(Built(), 2u);
}

TEST(Runtime, ConcurrentInstantiationsOnTwoParameterSetsDecryptCorrectly) {
  // Four threads instantiate Box Blur (4096/100) and Polynomial Regression
  // (4096/109) at once, each under its own execution seed: each parameter
  // set's context is built once, and every runtime decrypts what the
  // dry-run backend computes.
  const uint64_t Start = BfvContext::instancesCreated();
  std::vector<quill::Program> Programs;
  std::vector<std::vector<std::vector<uint64_t>>> Inputs;
  std::vector<std::vector<uint64_t>> Want;
  for (const char *Name : {"box blur", "polynomial regression"}) {
    auto R = Compiler(bundledOptions()).compile(Name);
    ASSERT_TRUE(R.hasValue()) << R.status().toString();
    Programs.push_back(R->Program);
    Inputs.push_back(slotPattern(R->Program));
    auto Dry = Compiler(dryrunOptions()).execute(R->Program, Inputs.back());
    ASSERT_TRUE(Dry.hasValue()) << Dry.status().toString();
    Want.push_back(Dry->Outputs);
  }

  constexpr int Threads = 4;
  std::vector<std::unique_ptr<Runtime>> Live(Threads);
  std::vector<std::string> Errors(Threads);
  std::atomic<int> Arrived{0};
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti)
    Pool.emplace_back([&, Ti] {
      const quill::Program &P = Programs[Ti % 2];
      CompileOptions Opts = bundledOptions();
      Opts.ExecutionSeed = 100 + static_cast<uint64_t>(Ti);
      ++Arrived;
      while (Arrived.load() < Threads)
        std::this_thread::yield();
      auto RT = Compiler(Opts).instantiate({&P});
      if (!RT) {
        Errors[Ti] = RT.status().toString();
        return;
      }
      auto Out = RT->execute(P, Inputs[Ti % 2], P.VectorSize);
      if (!Out)
        Errors[Ti] = Out.status().toString();
      else if (Out->Outputs != Want[Ti % 2])
        Errors[Ti] = "decrypted the wrong result";
      // Held until every thread is done, so no context dies in between.
      Live[Ti] = std::make_unique<Runtime>(RT.take());
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  EXPECT_EQ(BfvContext::instancesCreated() - Start, 2u);
}

TEST(Engine, ConcurrentMissesOfOneKeyCoalesceOntoOneCompile) {
  KernelRegistry R = addRegistry();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = true;
  Engine E(EO, &R);

  constexpr int Threads = 4;
  std::vector<Engine::KernelHandle> Handles(Threads);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti)
    Pool.emplace_back([&, Ti] {
      auto K = E.get("my add");
      if (K)
        Handles[Ti] = *K;
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti) {
    ASSERT_TRUE(Handles[Ti] != nullptr) << "thread " << Ti;
    EXPECT_EQ(Handles[Ti], Handles[0]);
  }
  EXPECT_EQ(E.stats().Compiles, 1u); // One synthesis for all four callers.
  EXPECT_EQ(E.stats().Misses + E.stats().Hits, 4u);
}

//===----------------------------------------------------------------------===//
// Artifacts
//===----------------------------------------------------------------------===//

TEST(Artifact, SaveLoadExecuteRoundTrip) {
  CompileOptions Opts = bundledOptions();
  Engine E(EngineOptions{4, 1, Opts});
  auto K = E.get("gx");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();

  const std::string Path = "engine_test_artifact.tmp.json";
  ASSERT_TRUE(saveArtifact(**K, Path).ok());

  Engine Fresh(EngineOptions{4, 1, Opts});
  auto L = Fresh.loadArtifact(Path);
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  EXPECT_EQ((*L)->name(), (*K)->name());
  EXPECT_EQ((*L)->fingerprint(), (*K)->fingerprint());
  EXPECT_TRUE(sameProgram((*L)->program(), (*K)->program()));
  EXPECT_EQ((*L)->result().Params.PolyDegree,
            (*K)->result().Params.PolyDegree);
  EXPECT_EQ((*L)->result().SealCode, (*K)->result().SealCode);
  EXPECT_EQ(Fresh.stats().ArtifactLoads, 1u);

  // The warm-started engine serves the matching get() from cache — the
  // whole point of artifacts: no recompilation on process restart.
  auto Warm = Fresh.get("gx", Opts);
  ASSERT_TRUE(Warm.hasValue()) << Warm.status().toString();
  EXPECT_EQ(*Warm, *L);
  EXPECT_EQ(Fresh.stats().Hits, 1u);
  EXPECT_EQ(Fresh.stats().Misses, 0u);

  // And the loaded kernel computes the same thing as the original.
  std::vector<std::vector<uint64_t>> Inputs = {
      std::vector<uint64_t>((*K)->program().VectorSize, 3)};
  auto A = (*K)->execute(Inputs);
  auto B = (*L)->execute(Inputs);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  ASSERT_TRUE(B.hasValue()) << B.status().toString();
  EXPECT_EQ(A->Outputs, B->Outputs);
  std::remove(Path.c_str());
}

TEST(Artifact, LoadedKernelChargesWithItsCompileLatencyTable) {
  // A kernel compiled under a non-default latency table and loaded into an
  // Engine with the default table must still be charged what its compile
  // estimated: the artifact carries the table.
  CompileOptions Opts = dryrunOptions();
  Opts.Synthesis.Latency.RotCt = 3000;
  Engine E(EngineOptions{1, 1, Opts});
  auto K = E.get("dot product");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();

  const std::string Path = "engine_test_latency_artifact.tmp.json";
  ASSERT_TRUE(saveArtifact(**K, Path).ok());
  Engine Fresh(EngineOptions{1, 1, dryrunOptions()});
  auto L = Fresh.loadArtifact(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  EXPECT_EQ((*L)->result().LatencyEstimateUs,
            (*K)->result().LatencyEstimateUs);

  const quill::Program &P = (*L)->program();
  auto Out = (*L)->execute(std::vector<std::vector<uint64_t>>(
      P.NumInputs, std::vector<uint64_t>(P.VectorSize, 2)));
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(Out->ChargedLatencyUs, (*L)->result().LatencyEstimateUs);
}

TEST(Artifact, NastyKernelNamesSurviveTheJsonRoundTrip) {
  CompileResult R;
  R.KernelName = "evil \"name\"\\with\nnewline\tand\x01control";
  R.Program = addProgram();
  R.SealCode = "// line1\n\"quoted\"\\\n";
  R.Notes.push_back({Severity::Note, "synthesis", "note with \"quotes\""});
  CompileOptions Opts;

  std::string Doc = renderArtifact(R, Opts);
  // The document must be valid JSON despite the hostile strings...
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, V, Err)) << Err;
  // ...and every string must round-trip exactly.
  auto A = parseArtifact(Doc);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  EXPECT_EQ(A->Kernel, R.KernelName);
  EXPECT_EQ(A->SealCode, R.SealCode);
  ASSERT_EQ(A->Notes.size(), 1u);
  EXPECT_EQ(A->Notes[0], R.Notes[0].toString());
}

TEST(Artifact, FullRangeUint64SeedsRoundTripExactly) {
  // Seeds above 2^53 would silently degrade through a double; the reader
  // must re-parse the source digits instead.
  CompileResult R;
  R.KernelName = "k";
  R.Program = addProgram();
  CompileOptions O;
  O.ExecutionSeed = 0xDEADBEEFDEADBEEFull;
  std::string Doc = renderArtifact(R, O);
  auto A = parseArtifact(Doc);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  EXPECT_EQ(A->ExecutionSeed, 0xDEADBEEFDEADBEEFull);
  // A present-but-broken seed is an error, never a silent default.
  EXPECT_FALSE(
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 1, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"execution_seed\": -3, \"program\": \"quill "
                    "inputs=1 width=2\\nc1 = add-ct-ct c0 c0\\nreturn "
                    "c1\\n\"}")
          .hasValue());
}

TEST(KernelRegistryThreads, ConcurrentLazyLookupsOnOneRegistryAreSafe) {
  // A fresh copy drops the materialized caches, so every thread races on
  // lazy materialization — through two Engines and direct find() calls.
  KernelRegistry Shared = KernelRegistry::builtin();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = false;
  Engine E1(EO, &Shared), E2(EO, &Shared);

  const char *Names[] = {"gx", "gy", "box blur", "dot product"};
  std::vector<int> Ok(4, 0);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < 4; ++Ti)
    Pool.emplace_back([&, Ti] {
      Engine &E = Ti % 2 ? E2 : E1;
      bool Good = E.get(Names[Ti]).hasValue() &&
                  Shared.find(Names[(Ti + 1) % 4]).hasValue();
      Ok[Ti] = Good ? 1 : 0;
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < 4; ++Ti)
    EXPECT_EQ(Ok[Ti], 1) << "thread " << Ti;
}

TEST(Artifact, CorruptedArtifactsAreRejectedWithDiagnostics) {
  // Not JSON at all.
  EXPECT_FALSE(parseArtifact("not json").hasValue());
  // JSON, but not an artifact.
  EXPECT_FALSE(parseArtifact("{\"format\": \"something-else\"}").hasValue());
  // Unsupported version.
  EXPECT_FALSE(
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 99, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"program\": \"quill inputs=1 width=2\\nc1 = "
                    "add-ct-ct c0 c0\\nreturn c1\\n\"}")
          .hasValue());
  // Tampered program text must fail re-validation, not execute garbage.
  auto Bad =
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 1, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"program\": \"quill inputs=1 width=2\\nc1 = "
                    "add-ct-ct c0 c9\\nreturn c1\\n\"}");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.status().toString().find("invalid"), std::string::npos);
  // Missing file.
  Engine E;
  EXPECT_FALSE(E.loadArtifact("/nonexistent/path.json").hasValue());
}

TEST(Artifact, RecordedParamsAreNotTrustedOnLoad) {
  // The "params" an artifact records are informational: a hand-edited
  // poly_degree loads with, and runs at, what the program selects.
  CompileOptions Opts = bundledOptions();
  Compiler C(Opts);
  auto R = C.compile("gx");
  ASSERT_TRUE(R.hasValue()) << R.status().toString();
  std::string Doc = renderArtifact(*R, Opts);
  const std::string Recorded =
      "\"poly_degree\": " + std::to_string(R->Params.PolyDegree);
  size_t At = Doc.find(Recorded);
  ASSERT_NE(At, std::string::npos) << Doc;
  Doc.replace(At, Recorded.size(), "\"poly_degree\": 1024");

  const std::string Path = "engine_test_params_artifact.tmp.json";
  writeFile(Path, Doc);
  Engine E(EngineOptions{1, 1, Opts});
  auto L = E.loadArtifact(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  EXPECT_EQ((*L)->result().Params.PolyDegree, R->Params.PolyDegree);
  const quill::Program &P = (*L)->program();
  auto Out = (*L)->execute(std::vector<std::vector<uint64_t>>(
      P.NumInputs, std::vector<uint64_t>(P.VectorSize, 2)));
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(Out->PolyDegree, (*L)->result().Params.PolyDegree);
}

TEST(Artifact, RecordedCostEstimateIsNotTrustedOnLoad) {
  // "cost" and "latency_us" are informational too: a hand-edited estimate
  // loads with, and the dry-run backend charges, what the recorded latency
  // table prices the program at.
  Compiler C(dryrunOptions());
  auto R = C.compile("dot product");
  ASSERT_TRUE(R.hasValue()) << R.status().toString();
  std::string Doc = renderArtifact(*R, C.options());
  const std::pair<std::string, std::string> Edits[] = {
      {"\"cost\": ", "1"}, {"\"latency_us\": ", "2"}};
  for (const auto &[Field, Value] : Edits) {
    size_t At = Doc.find(Field);
    ASSERT_NE(At, std::string::npos) << Doc;
    At += Field.size();
    Doc.replace(At, Doc.find(',', At) - At, Value);
  }

  const std::string Path = "engine_test_cost_artifact.tmp.json";
  writeFile(Path, Doc);
  Engine E(EngineOptions{1, 1, dryrunOptions()});
  auto L = E.loadArtifact(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  EXPECT_EQ((*L)->result().Cost, 23600.0);
  EXPECT_EQ((*L)->result().LatencyEstimateUs, 11800.0);
  const quill::Program &P = (*L)->program();
  auto Out = (*L)->execute(std::vector<std::vector<uint64_t>>(
      P.NumInputs, std::vector<uint64_t>(P.VectorSize, 2)));
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(Out->ChargedLatencyUs, 11800.0);
}

TEST(Artifact, AHandEditedPlainModulusFailsToExecute) {
  // An artifact whose plain_modulus was edited to one "bfv" cannot batch
  // (65536 is not prime) still loads; executing it returns an "execute"
  // Status instead of aborting in the context's constructor.
  Compiler C(bundledOptions());
  auto R = C.compile("dot product");
  ASSERT_TRUE(R.hasValue()) << R.status().toString();
  std::string Doc = renderArtifact(*R, C.options());
  const std::string Recorded = "\"plain_modulus\": 65537";
  size_t At = Doc.find(Recorded);
  ASSERT_NE(At, std::string::npos) << Doc;
  Doc.replace(At, Recorded.size(), "\"plain_modulus\": 65536");

  const std::string Path = "engine_test_modulus_artifact.tmp.json";
  writeFile(Path, Doc);
  Engine E(EngineOptions{1, 1, bundledOptions()});
  auto L = E.loadArtifact(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  const quill::Program &P = (*L)->program();
  auto Out = (*L)->execute(std::vector<std::vector<uint64_t>>(
      P.NumInputs, std::vector<uint64_t>(P.VectorSize, 2)));
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.status().diagnostics().front().Stage, "execute");
  EXPECT_NE(Out.status().message().find("65536: it is not prime"),
            std::string::npos)
      << Out.status().toString();
}

TEST(Artifact, FuzzedArtifactJsonLoadsOrFailsCleanly) {
  // Seeded mutation fuzz of rendered artifacts through parseArtifact, and
  // with it support/Json and the embedded program parser: truncations,
  // byte substitutions and insertions, and splices of two artifacts. Each
  // mutant is rejected with a Status or carries a program that passes
  // validate().
  const uint64_t Seed = testSeed(7400);
  SeedReporter Report(Seed);
  Rng R(Seed);
  Compiler C(bundledOptions());
  std::vector<std::string> Docs;
  for (const char *Name :
       {"dot product", "box blur", "polynomial regression"}) {
    auto Res = C.compile(Name);
    ASSERT_TRUE(Res.hasValue()) << Res.status().toString();
    Docs.push_back(renderArtifact(*Res, C.options()));
  }
  const std::string Alphabet = " \n\t{}[]:,\"\\-+.eE0123456789acdflnprstu=";
  int Loaded = 0;
  for (int Round = 0; Round < 2000; ++Round) {
    std::string Mut = Docs[R.below(Docs.size())];
    for (uint64_t Edits = 1 + R.below(3); Edits > 0; --Edits)
      Mut = mutateBytes(R, std::move(Mut), Docs[R.below(Docs.size())],
                        Alphabet);
    auto A = parseArtifact(Mut);
    if (A) {
      ++Loaded;
      EXPECT_EQ(A->Program.validate(), "") << Mut;
    } else {
      EXPECT_FALSE(A.status().toString().empty()) << Mut;
    }
  }
  // Some mutants load, so the loaded-program check is exercised too.
  EXPECT_GT(Loaded, 0);
}

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json::quote("x"), "\"x\"");
}

TEST(Json, ParserRoundTripsEscapedStrings) {
  const std::string Nasty = "a\"b\\c\nd\te\x01f";
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse("{\"k\": " + json::quote(Nasty) + "}", V, Err))
      << Err;
  ASSERT_TRUE(V.isObject());
  const json::Value *K = V.find("k");
  ASSERT_TRUE(K && K->isString());
  EXPECT_EQ(K->asString(), Nasty);
}

TEST(Json, ParserRejectsMalformedDocuments) {
  json::Value V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "01", "1.", "1e", "{\"a\":1} trailing", "\"lone \\udc00 surrogate\"",
        "\"bad \\x escape\"", "\"raw \n control\""}) {
    EXPECT_FALSE(json::parse(Bad, V, Err)) << "accepted: " << Bad;
    EXPECT_FALSE(Err.empty());
  }
  // Hostile nesting depth fails cleanly instead of overflowing the stack.
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(json::parse(Deep, V, Err));
}

TEST(Json, ParserHandlesNumbersBoolsNullsAndNesting) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      "{\"i\": 42, \"f\": -1.5e2, \"t\": true, \"n\": null, "
      "\"a\": [1, {\"deep\": \"yes\"}], \"u\": \"\\u0041\\u00e9\"}",
      V, Err))
      << Err;
  EXPECT_EQ(V.find("i")->asNumber(), 42.0);
  EXPECT_EQ(V.find("f")->asNumber(), -150.0);
  EXPECT_TRUE(V.find("t")->asBool());
  EXPECT_TRUE(V.find("n")->isNull());
  ASSERT_TRUE(V.find("a")->isArray());
  EXPECT_EQ(V.find("a")->elements()[1].find("deep")->asString(), "yes");
  EXPECT_EQ(V.find("u")->asString(), "A\xc3\xa9");
}

TEST(Json, CompileResultRecordIsValidJsonEvenWithHostileStrings) {
  CompileResult R;
  R.KernelName = "k\"er\\nel\nname";
  R.Program = addProgram();
  R.SealCode = "code with \"quotes\" and \\slashes\\";
  R.Notes.push_back({Severity::Warning, "synthesis", "warn \"hard\""});
  std::string J = toJson(R);
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(J, V, Err)) << Err;
  EXPECT_EQ(V.find("kernel")->asString(), R.KernelName);
  EXPECT_EQ(V.find("seal_code")->asString(), R.SealCode);
}

//===----------------------------------------------------------------------===//
// Program serialization round-trip
//===----------------------------------------------------------------------===//

TEST(ProgramRoundTrip, EveryBundledKernelPrintsAndParsesBack) {
  const KernelRegistry &R = KernelRegistry::builtin();
  for (const std::string &Name : R.names()) {
    auto B = R.find(Name);
    ASSERT_TRUE(B.hasValue()) << Name;
    for (const quill::Program *P :
         {&(*B)->Synthesized, &(*B)->Baseline}) {
      if (P->Instructions.empty())
        continue;
      std::string Text = quill::printProgram(*P);
      quill::Program Parsed;
      std::string Error;
      ASSERT_TRUE(quill::parseProgram(Text, Parsed, Error))
          << Name << ": " << Error;
      EXPECT_TRUE(sameProgram(*P, Parsed)) << Name;
      // And printing the parse is a fixed point.
      EXPECT_EQ(quill::printProgram(Parsed), Text) << Name;
    }
  }
}

TEST(ProgramRoundTrip, ParserRejectsHostileInputWithoutThrowing) {
  quill::Program P;
  std::string Error;
  // Overflowing / out-of-range numbers must fail, not throw.
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=99999999999999999999 width=4\n", P, Error));
  EXPECT_FALSE(
      quill::parseProgram("quill inputs=1 width=99999999999\n", P, Error));
  EXPECT_FALSE(quill::parseProgram("quill inputs=0 width=4\n", P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 99999999999999999999\nreturn "
      "c1\n",
      P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 1abc\nreturn c1\n", P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc99999999999999999999 = rot-ct c0 1\n", P,
      Error));
  // Valid negative rotation still parses.
  ASSERT_TRUE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 -1\nreturn c1\n", P, Error))
      << Error;
  EXPECT_EQ(P.Instructions[0].Rot, -1);
}

//===----------------------------------------------------------------------===//
// Eviction under load and async compilation (serving-tier prerequisites)
//===----------------------------------------------------------------------===//

/// An "a + b" bundle whose *spec* carries \p Name — the Engine cache keys
/// on the spec name, so distinct names occupy distinct cache entries.
KernelBundle namedAddBundle(const std::string &Name) {
  KernelBundle B;
  DataLayout Layout;
  Layout.Description = "slotwise a + b";
  B.Spec = makeKernelSpec(Name, 2, 4, Layout,
                          [](const auto &In, auto Konst) {
                            (void)Konst;
                            std::decay_t<decltype(In[0])> Out;
                            for (size_t I = 0; I < 4; ++I)
                              Out.push_back(In[0][I] + In[1][I]);
                            return Out;
                          });
  B.Sketch = addSketch();
  B.Synthesized = addProgram();
  return B;
}

TEST(Engine, EvictionUnderConcurrentExecuteKeepsHeldHandlesValid) {
  // Capacity-1 cache with two kernels: every get() of one evicts the
  // other. Worker threads hammer encrypted execute() on handles they hold
  // while the main thread forces continuous eviction churn — held handles
  // must stay valid and correct throughout (shared_ptr ownership, not
  // cache residency, governs lifetime).
  KernelRegistry R;
  ASSERT_TRUE(R.add("add a", namedAddBundle("add a")).ok());
  ASSERT_TRUE(R.add("add b", namedAddBundle("add b")).ok());
  Engine E(EngineOptions{1, 2, bundledOptions()}, &R);

  auto KA = E.get("add a");
  auto KB = E.get("add b"); // Evicts "add a" immediately.
  ASSERT_TRUE(KA.hasValue()) << KA.status().toString();
  ASSERT_TRUE(KB.hasValue()) << KB.status().toString();

  constexpr int Threads = 2;
  constexpr int CallsPerThread = 4;
  std::vector<std::string> Errors(Threads);
  std::atomic<bool> Done{false};
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti) {
    Pool.emplace_back([&, Ti] {
      // Each thread executes on the handle the OTHER thread's gets keep
      // evicting.
      const CompiledKernel &K = Ti % 2 ? **KB : **KA;
      for (int C = 0; C < CallsPerThread; ++C) {
        uint64_t Base = static_cast<uint64_t>(Ti * 100 + C * 10);
        std::vector<std::vector<uint64_t>> In = {
            {Base + 1, Base + 2, Base + 3, Base + 4}, {5, 6, 7, 8}};
        auto Out = K.execute(In);
        if (!Out) {
          Errors[Ti] = Out.status().toString();
          return;
        }
        if (Out->Outputs != quill::interpret(K.program(), In, T)) {
          Errors[Ti] = "thread " + std::to_string(Ti) + " call " +
                       std::to_string(C) + " decrypted the wrong result";
          return;
        }
      }
    });
  }
  // Eviction churn concurrent with the executions above.
  std::thread Churn([&] {
    int Flip = 0;
    while (!Done.load(std::memory_order_relaxed))
      E.get(++Flip % 2 ? "add a" : "add b");
  });
  for (std::thread &Th : Pool)
    Th.join();
  Done.store(true);
  Churn.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  EXPECT_EQ(E.size(), 1u); // Capacity was honored throughout.
  EXPECT_GT(E.stats().Evictions, 0u);
}

TEST(Engine, CompileAsyncBurstDrainsThroughTheBoundedPool) {
  // More queued compiles than pool threads (2): the bounded ThreadPool
  // must drain them all without spawning a thread per request, and
  // coalescing must still collapse duplicate keys onto one compile.
  KernelRegistry R = addRegistry();
  EngineOptions EO{8, 1, bundledOptions()};
  EO.AsyncCompileThreads = 2;
  Engine E(EO, &R);

  std::vector<std::future<Expected<Engine::KernelHandle>>> Futs;
  for (int I = 0; I < 8; ++I) {
    CompileOptions Opts = bundledOptions();
    Opts.ExecutionSeed = static_cast<uint64_t>(I % 4 + 1); // 4 distinct keys.
    Futs.push_back(E.compileAsync("my add", Opts));
  }
  std::vector<Engine::KernelHandle> Handles;
  for (auto &F : Futs) {
    auto K = F.get();
    ASSERT_TRUE(K.hasValue()) << K.status().toString();
    Handles.push_back(*K);
  }
  // Duplicate seeds resolved to the same cached kernel.
  EXPECT_EQ(Handles[0], Handles[4]);
  EXPECT_NE(Handles[0], Handles[1]);
  EXPECT_EQ(E.size(), 4u);
  EXPECT_EQ(E.stats().Compiles, 4u);

  auto Out = Handles[0]->execute({{1, 2, 3, 4}, {10, 20, 30, 40}});
  ASSERT_TRUE(Out.hasValue());
  EXPECT_EQ(Out->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
}

TEST(Engine, DestructionResolvesEveryPendingAsyncFuture) {
  // Futures returned by compileAsync may outlive the Engine; destruction
  // must leave each one resolved (value or error), never abandoned.
  KernelRegistry R = addRegistry();
  std::vector<std::future<Expected<Engine::KernelHandle>>> Futs;
  {
    EngineOptions EO{8, 1, bundledOptions()};
    EO.AsyncCompileThreads = 1;
    Engine E(EO, &R);
    for (int I = 0; I < 4; ++I) {
      CompileOptions Opts = bundledOptions();
      Opts.ExecutionSeed = static_cast<uint64_t>(I + 1);
      Futs.push_back(E.compileAsync("my add", Opts));
    }
  } // ~Engine: shuts the pool down after running queued tasks.
  for (auto &F : Futs) {
    ASSERT_TRUE(F.valid());
    auto K = F.get(); // Must not hang or throw broken_promise.
    if (K.hasValue())
      EXPECT_TRUE(*K != nullptr);
    else
      EXPECT_FALSE(K.status().ok());
  }
}

} // namespace
