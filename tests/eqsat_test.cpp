//===- tests/eqsat_test.cpp - Equality-saturation superoptimizer ----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// quill::eqsat: e-graph structural invariants (hashcons, union-find,
/// rebuild-based congruence closure), rewrite-rule soundness via the
/// interpreter on seeded random programs, extraction never losing to the
/// greedy default pipeline or to its pinned cost on any bundled kernel
/// (and strictly winning on
/// at least one — the global mult-depth trade the one-directional passes
/// cannot see), eqsat's programs staying right at the ciphertext row
/// width (raw rotation amounts), and the determinism contract: with the
/// wall-clock budget disabled, extraction is byte-identical across
/// repeated runs, across budget settings that both reach saturation, and
/// across synthesis thread counts. The budget-stopped trajectories of the three `.porc`
/// workloads are pinned against goldens in tests/expected/.
///
//===----------------------------------------------------------------------===//

#include "quill/eqsat/EGraph.h"
#include "quill/eqsat/Extract.h"
#include "quill/eqsat/Rules.h"
#include "quill/eqsat/Saturate.h"

#include "driver/Driver.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "quill/Passes.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

using namespace porcupine;
using namespace porcupine::quill;
using namespace porcupine::quill::eqsat;

namespace {

constexpr uint64_t T = 65537;

std::string invariants(const EGraph &G) {
  std::string Why;
  return G.checkInvariants(&Why) ? std::string() : Why;
}

//===----------------------------------------------------------------------===//
// E-graph structural invariants
//===----------------------------------------------------------------------===//

TEST(EGraph, HashconsDeduplicates) {
  EGraph G(/*Width=*/8, T);
  int X = G.addInput(0);
  int Y = G.addInput(1);
  EXPECT_NE(X, Y);
  EXPECT_EQ(G.addInput(0), X);
  int S1 = G.addCtCt(Opcode::AddCtCt, X, Y);
  int S2 = G.addCtCt(Opcode::AddCtCt, X, Y);
  EXPECT_EQ(S1, S2);
  // AddCtCt is interned commutatively (sorted operands), so the mirrored
  // node lands in the same class without any rule firing.
  EXPECT_EQ(G.addCtCt(Opcode::AddCtCt, Y, X), S1);
  // SubCtCt is not commutative: operand order must distinguish classes.
  EXPECT_NE(G.addCtCt(Opcode::SubCtCt, X, Y), G.addCtCt(Opcode::SubCtCt, Y, X));
  EXPECT_EQ(invariants(G), "");
}

TEST(EGraph, RotationKeepsRawAmounts) {
  EGraph G(/*Width=*/4, T);
  int X = G.addInput(0);
  // Only a literal rot by 0 is the identity: no node, same class back.
  EXPECT_EQ(G.addRot(X, 0), X);
  // Amounts equal mod W stay apart: they differ on a ciphertext row wider
  // than W, where encrypted programs rotate.
  EXPECT_NE(G.addRot(X, -1), G.addRot(X, 3));
  EXPECT_NE(G.addRot(X, 5), G.addRot(X, 1));

  // Composition adds raw amounts, collapses a net 0, and skips a sum
  // that is a nonzero multiple of W.
  const int R1 = G.addRot(X, 1);
  const int Back = G.addRot(R1, -1); // net 0
  const int Three = G.addRot(R1, 2); // net 3
  const int Wrap = G.addRot(R1, 3);  // net 4 == W
  runRuleIteration(G);
  EXPECT_EQ(G.find(Back), G.find(X));
  EXPECT_EQ(G.find(Three), G.find(G.addRot(X, 3)));
  EXPECT_NE(G.find(Wrap), G.find(X));
  for (int C : G.classIds())
    for (const ENode &N : G.nodes(C))
      EXPECT_FALSE(!N.isInput() && N.op() == Opcode::RotCt &&
                   N.Payload % 4 == 0)
          << "rot by " << N.Payload << " at width 4";
  EXPECT_EQ(invariants(G), "");
}

TEST(EGraph, RebuildRestoresCongruenceClosure) {
  EGraph G(/*Width=*/8, T);
  int A = G.addInput(0);
  int B = G.addInput(1);
  int FA = G.addCtCt(Opcode::MulCtCt, A, A);
  int FB = G.addCtCt(Opcode::MulCtCt, B, B);
  EXPECT_NE(G.find(FA), G.find(FB));
  // Assert a == b; congruence must propagate f(a) == f(b) on rebuild.
  ASSERT_TRUE(G.merge(A, B));
  G.rebuild();
  EXPECT_EQ(G.find(A), G.find(B));
  EXPECT_EQ(G.find(FA), G.find(FB));
  EXPECT_EQ(invariants(G), "");
}

TEST(EGraph, NestedCongruencePropagates) {
  EGraph G(/*Width=*/8, T);
  int A = G.addInput(0);
  int B = G.addInput(1);
  int C = G.addInput(2);
  // g(f(a), c) vs g(f(b), c): two levels of congruence from one merge.
  int FA = G.addRot(A, 1);
  int FB = G.addRot(B, 1);
  int GA = G.addCtCt(Opcode::AddCtCt, FA, C);
  int GB = G.addCtCt(Opcode::AddCtCt, FB, C);
  ASSERT_TRUE(G.merge(A, B));
  G.rebuild();
  EXPECT_EQ(G.find(GA), G.find(GB));
  EXPECT_EQ(invariants(G), "");
}

TEST(EGraph, MergeIsIdempotentAndVersioned) {
  EGraph G(/*Width=*/8, T);
  int A = G.addInput(0);
  int B = G.addInput(1);
  uint64_t V0 = G.version();
  ASSERT_TRUE(G.merge(A, B));
  EXPECT_GT(G.version(), V0);
  uint64_t V1 = G.version();
  // Re-merging an already-unified pair must not claim a change.
  EXPECT_FALSE(G.merge(A, B));
  EXPECT_EQ(G.version(), V1);
}

/// Brute-force live-node count: the node lists of the distinct roots of
/// \p Ids, read as they stand (a dirty graph's duplicates included).
size_t recountNodes(const EGraph &G, const std::vector<int> &Ids) {
  std::set<int> Roots;
  for (int Id : Ids)
    Roots.insert(G.find(Id));
  size_t N = 0;
  for (int R : Roots)
    N += G.nodes(R).size();
  return N;
}

TEST(EGraph, NodeCountTracksInterleavedAddsAndMerges) {
  // A rule sweep adds nodes and merges classes with no rebuild in between
  // and reads numNodes() after every application (the node cap). The
  // count must equal the recount at each step, duplicates that only the
  // next rebuild removes included, and again after that rebuild.
  const uint64_t Seed = testSeed(9000);
  SeedReporter Report(Seed);
  Rng R(Seed);
  EGraph G(/*Width=*/8, T);
  std::vector<int> Ids;
  for (int I = 0; I < 3; ++I)
    Ids.push_back(G.addInput(I));
  PlainConstant Two;
  Two.Values = {2};
  const int Pt = G.internConstant(Two);
  bool SawDuplicates = false;
  for (int Round = 0; Round < 6; ++Round) {
    for (int Step = 0; Step < 40; ++Step) {
      const int A = Ids[R.below(Ids.size())];
      const int B = Ids[R.below(Ids.size())];
      switch (R.below(5)) {
      case 0:
        Ids.push_back(G.addCtCt(Opcode::AddCtCt, A, B));
        break;
      case 1:
        Ids.push_back(G.addCtCt(Opcode::MulCtCt, A, B));
        break;
      case 2:
        Ids.push_back(G.addCtPt(Opcode::MulCtPt, A, Pt));
        break;
      case 3:
        Ids.push_back(G.addRot(A, 1 + static_cast<int>(R.below(7))));
        break;
      default:
        G.merge(A, B);
        break;
      }
      ASSERT_EQ(G.numNodes(), recountNodes(G, Ids))
          << "round " << Round << ", step " << Step;
    }
    const size_t Before = G.numNodes();
    G.rebuild();
    ASSERT_EQ(G.numNodes(), recountNodes(G, Ids)) << "after rebuild " << Round;
    ASSERT_EQ(invariants(G), "");
    SawDuplicates |= G.numNodes() < Before;
  }
  // The schedule must reach the path where rebuild drops duplicates.
  EXPECT_TRUE(SawDuplicates);
}

//===----------------------------------------------------------------------===//
// Rule soundness on seeded random programs
//===----------------------------------------------------------------------===//

std::vector<SlotVector> randomInputs(Rng &R, const Program &P) {
  std::vector<SlotVector> Inputs;
  for (int I = 0; I < P.NumInputs; ++I)
    Inputs.push_back(R.vectorBelow(T, P.VectorSize));
  return Inputs;
}

class EqSatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EqSatRandomTest, SaturateExtractPreservesBehavior) {
  const uint64_t Seed = testSeed(7000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  Program P = randomProgram(R, 4 + 4 * (GetParam() % 2), 6 + GetParam() % 7);
  ASSERT_EQ(P.validate(), "");

  BuiltGraph B = buildEGraph(P, T);
  EXPECT_EQ(invariants(B.Graph), "");
  EqSatBudgets Budgets;
  Budgets.MaxIterations = 4;
  Budgets.MaxNodes = 4000;
  saturate(B.Graph, Budgets);
  EXPECT_EQ(invariants(B.Graph), "");

  LatencyTable Lat;
  ExtractionResult E = extract(B.Graph, B.Root, P.NumInputs, Lat);
  ASSERT_TRUE(E.Valid);
  ASSERT_EQ(E.Prog.validate(), "");
  // Every rewrite rule is a mod-t identity: the extracted program must
  // agree with the original on arbitrary inputs.
  for (int Trial = 0; Trial < 3; ++Trial) {
    auto Inputs = randomInputs(R, P);
    EXPECT_EQ(interpret(P, Inputs, T), interpret(E.Prog, Inputs, T))
        << "saturated extraction changed behavior";
  }
}

TEST_P(EqSatRandomTest, SingleRuleSweepKeepsInvariants) {
  const uint64_t Seed = testSeed(8000 + GetParam());
  SeedReporter Report(Seed);
  Rng R(Seed);
  Program P = randomProgram(R, 4, 8);
  BuiltGraph B = buildEGraph(P, T);
  for (int Sweep = 0; Sweep < 3; ++Sweep) {
    runRuleIteration(B.Graph);
    std::string Why = invariants(B.Graph);
    ASSERT_EQ(Why, "") << "after sweep " << Sweep;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqSatRandomTest, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Extraction vs the greedy default pipeline (every bundled kernel)
//===----------------------------------------------------------------------===//

PassManagerOptions managerOptions(const Program &P, unsigned Seed = 7) {
  PassManagerOptions O;
  O.Context.PlainModulus = T;
  Rng R(Seed);
  for (int E = 0; E < 3; ++E) {
    std::vector<SlotVector> Example;
    for (int I = 0; I < P.NumInputs; ++I)
      Example.push_back(R.vectorBelow(T, P.VectorSize));
    O.Examples.push_back(std::move(Example));
  }
  return O;
}

Program runPipeline(const Program &P, const std::string &Pipeline,
                    const EqSatBudgets *Budgets = nullptr) {
  Program Q = P;
  auto O = managerOptions(P);
  if (Budgets)
    O.Context.EqSat = *Budgets;
  auto PM = PassManager::fromPipeline(Pipeline, O);
  EXPECT_TRUE(PM.hasValue()) << PM.status().toString();
  auto Stats = PM->run(Q);
  EXPECT_TRUE(Stats.hasValue()) << Stats.status().toString();
  return Q;
}

std::string eqsatPipeline() {
  return std::string(defaultPipeline()) + ",eqsat";
}

/// Optimized cost of each bundled kernel's synthesized program under the
/// default pipeline plus eqsat, as `porcc opt <kernel> --pipeline
/// ...,eqsat --json` reported it when pinned. Only Group-By Sum,
/// Perceptron 8-4-1 and Variance sit below their default-pipeline pins
/// (passes_test).
const std::pair<const char *, double> EqSatPipelineCosts[] = {
    {"Box Blur", 3200},
    {"Conv2D 5x5", 96800},
    {"Dot Product", 23600},
    {"Group-By Sum", 36000},
    {"Gx", 6300},
    {"Gy", 6300},
    {"Hamming Distance", 20600},
    {"L2 Distance", 23800},
    {"Linear Regression", 17400},
    {"Perceptron 8-4-1", 170200},
    {"Polynomial Regression", 38100},
    {"Roberts Cross", 31600},
    {"Variance", 44600},
};

TEST(EqSatExtraction, NeverLosesToGreedyOnAnyBundledKernel) {
  // The acceptance bar, through Compiler::optimize as `porcc opt` runs
  // it: over every bundled kernel, no pass of the eqsat pipeline raises
  // the cost or is reverted, the result costs no more than the default
  // pipeline's or its pin, and the e-graph finds at least one strict win
  // the greedy passes cannot (variance: the mulpt-by-4 strength-reduces to
  // (2x)^2, dropping a mult-depth level).
  driver::CompileOptions SuperOpts;
  SuperOpts.Pipeline = eqsatPipeline();
  driver::Compiler Greedy, Super(SuperOpts);
  int StrictWins = 0;
  size_t Pinned = 0;
  for (const auto &B : kernels::allKernels()) {
    const Program &P = B.Synthesized;
    auto G = Greedy.optimize(P);
    auto S = Super.optimize(P);
    ASSERT_TRUE(G.hasValue()) << B.Spec.name() << ": " << G.status().toString();
    ASSERT_TRUE(S.hasValue()) << B.Spec.name() << ": " << S.status().toString();
    for (const PassRunStats &Pass : S->Stats.Passes) {
      EXPECT_LE(Pass.CostAfter, Pass.CostBefore)
          << B.Spec.name() << ", " << Pass.Pass;
      EXPECT_FALSE(Pass.Reverted) << B.Spec.name() << ", " << Pass.Pass;
    }
    double CG = G->Stats.costAfter();
    double CS = S->Stats.costAfter();
    EXPECT_LE(CS, CG + 1e-9)
        << B.Spec.name() << ": eqsat extraction lost to the greedy pipeline";
    for (const auto &[Name, Cost] : EqSatPipelineCosts)
      if (B.Spec.name() == Name) {
        ++Pinned;
        EXPECT_LE(CS, Cost) << Name;
      }
    EXPECT_EQ(S->Program.validate(), "") << B.Spec.name();
    // Behavior must be untouched regardless of cost.
    Rng R(911);
    for (int Trial = 0; Trial < 3; ++Trial) {
      auto Inputs = randomInputs(R, P);
      EXPECT_EQ(interpret(P, Inputs, T), interpret(S->Program, Inputs, T))
          << B.Spec.name();
    }
    if (CS < CG - 1e-9)
      ++StrictWins;
  }
  EXPECT_GE(StrictWins, 1)
      << "eqsat must strictly beat the greedy pipeline on >= 1 kernel";
  EXPECT_EQ(Pinned, std::size(EqSatPipelineCosts));
}

TEST(EqSatExtraction, VarianceStrictWinDropsAMultDepthLevel) {
  // The marquee win: n*sum(x^2) multiplies by the splat constant 4, one
  // full multiplicative level under cost = latency * (1 + mdepth). The
  // e-graph proves 4*sum(x^2) == sum((2x)^2) (doubling is an addition)
  // and extraction takes the global trade.
  for (const auto &B : kernels::allKernels()) {
    if (B.Spec.name() != "Variance")
      continue;
    Program Greedy = runPipeline(B.Synthesized, defaultPipeline());
    Program Super = runPipeline(B.Synthesized, eqsatPipeline());
    CostModel Cost;
    EXPECT_LT(Cost.cost(Super), Cost.cost(Greedy) - 1e-9);
    EXPECT_LT(programMultiplicativeDepth(Super),
              programMultiplicativeDepth(Greedy));
    return;
  }
  ADD_FAILURE() << "Variance kernel missing from the registry";
}

TEST(EqSatExtraction, AloneNeverLosesToTheDefaultPipeline) {
  // Extraction is greedy per class, so a budget-stopped saturation can
  // extract a program dearer than the unsaturated graph: on Harris's
  // baseline, whose four duplicate rotations the default pipeline shares
  // by CSE, every sweep made eqsat's pick worse. The pass keeps the
  // unsaturated graph's extraction as a candidate, so eqsat alone never
  // loses to the greedy pipeline.
  std::vector<std::pair<std::string, Program>> Programs;
  for (const auto &B : kernels::allKernels()) {
    Programs.emplace_back(B.Spec.name(), B.Synthesized);
    Programs.emplace_back(B.Spec.name() + " baseline", B.Baseline);
  }
  for (const kernels::AppBundle &App :
       {kernels::sobelApp(), kernels::harrisApp()}) {
    Programs.emplace_back(App.Name, App.Synthesized);
    Programs.emplace_back(App.Name + " baseline", App.Baseline);
  }
  CostModel Cost;
  for (const auto &[Name, P] : Programs) {
    if (P.Instructions.empty())
      continue;
    double Greedy = Cost.cost(runPipeline(P, defaultPipeline()));
    double EqSat = Cost.cost(runPipeline(P, "lazy-relin,eqsat"));
    EXPECT_LE(EqSat, Greedy + 1e-9) << Name;
  }
}

TEST(EqSatExtraction, PorcWorkloadsMatchTheSpecOnTheCiphertextRow) {
  // Encrypted execution rotates over the whole batching row, not over the
  // program width W. A rewrite that holds only mod W (rot by -1 == rot by
  // W-1) passes every width-W interpreter check but fails here, on the
  // dry-run backend, which rotates at the row width as BFV does.
  driver::CompileOptions Opts;
  Opts.Pipeline = eqsatPipeline();
  Opts.Backend = "dryrun";
  driver::Compiler C(Opts);
  const uint64_t Seed = testSeed(9100);
  SeedReporter Report(Seed);
  Rng R(Seed);
  for (const char *Slug : {"conv2d-5x5", "perceptron-8-4-1", "group-by-sum"}) {
    auto B = C.registry().find(Slug);
    ASSERT_TRUE(B.hasValue()) << B.status().toString();
    const KernelSpec &Spec = (*B)->Spec;
    auto Compiled = C.compilePorc(kernels::porcWorkloadSource(Spec.name()),
                                  std::string(Slug) + ".porc");
    ASSERT_TRUE(Compiled.hasValue()) << Compiled.status().toString();
    for (int Trial = 0; Trial < 3; ++Trial) {
      auto In = Spec.randomInputs(R, T);
      auto Out = C.execute(Compiled->Program, In);
      ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
      std::vector<uint64_t> Want = Spec.evalConcrete(In, T);
      for (size_t I = 0; I < Spec.vectorSize(); ++I) {
        if (Spec.outputSlotMatters(I)) {
          EXPECT_EQ(Out->Outputs[I], Want[I]) << Slug << " slot " << I;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Determinism and idempotence
//===----------------------------------------------------------------------===//

/// Kernels whose e-graphs reach saturation under the default budgets
/// (empirically: the small-width and stencil kernels; dot product, L2,
/// and variance stop on the iteration/node budget instead).
std::vector<std::string> saturatingKernels() {
  return {"Box Blur", "Hamming Distance", "Linear Regression",
          "Polynomial Regression", "Gx"};
}

TEST(EqSatDeterminism, RepeatedRunsExtractByteIdenticalPrograms) {
  // TimeBudgetMs = 0 (default): no clock anywhere in the loop, so two
  // runs over the same program must extract the same bytes — including
  // on kernels that stop on the node budget rather than saturating.
  for (const auto &B : kernels::allKernels()) {
    const Program &P = B.Synthesized;
    if (P.Instructions.empty())
      continue;
    Program R1 = runPipeline(P, eqsatPipeline());
    Program R2 = runPipeline(P, eqsatPipeline());
    EXPECT_EQ(printProgram(R1), printProgram(R2)) << B.Spec.name();
  }
}

TEST(EqSatDeterminism, SaturatingBudgetsAgreeOnExtraction) {
  // Any two budget settings that both reach saturation see the same final
  // e-graph, so extraction must be byte-identical. (Budgets that stop
  // early are keyed into the compile fingerprint precisely because this
  // property does NOT hold for them.)
  for (const auto &Name : saturatingKernels()) {
    Program P;
    for (const auto &B : kernels::allKernels())
      if (B.Spec.name() == Name) {
        P = B.Synthesized;
        break;
      }
    ASSERT_FALSE(P.Instructions.empty()) << Name;
    EqSatBudgets Small;
    Small.MaxIterations = 8;
    EqSatBudgets Large;
    Large.MaxIterations = 32;
    Large.MaxNodes = 200000;
    Program A = runPipeline(P, eqsatPipeline(), &Small);
    Program B = runPipeline(P, eqsatPipeline(), &Large);
    EXPECT_EQ(printProgram(A), printProgram(B)) << Name;
  }
}

TEST(EqSatDeterminism, SaturatedPassIsIdempotent) {
  // When saturation completes, the committed program is the global
  // optimum the graph contains — running the pass again must change
  // nothing (the manager's cost guard would catch a regression; this
  // checks full fixpoint, not just cost).
  for (const auto &Name : saturatingKernels()) {
    for (const auto &B : kernels::allKernels()) {
      if (B.Spec.name() != Name)
        continue;
      Program Once = runPipeline(B.Synthesized, eqsatPipeline());
      Program Twice = runPipeline(Once, "eqsat");
      EXPECT_EQ(printProgram(Once), printProgram(Twice)) << Name;
    }
  }
}

TEST(EqSatDeterminism, ByteIdenticalAcrossSynthesisThreadCounts) {
  // The PR-4 thread rule extended to eqsat: Synthesis.Threads is not in
  // the compile fingerprint, so the optimized program must be identical
  // whatever the thread count — eqsat is single-threaded and clock-free,
  // but this pins the end-to-end driver contract.
  driver::CompileOptions Opts;
  Opts.RunSynthesis = false;
  Opts.Pipeline = eqsatPipeline();
  Opts.ExecutionSeed = 5;
  std::string Printed[2];
  int ThreadCounts[2] = {1, 4};
  for (int I = 0; I < 2; ++I) {
    Opts.Synthesis.Threads = ThreadCounts[I];
    driver::Compiler C(Opts);
    auto R = C.compile("variance");
    ASSERT_TRUE(R.hasValue()) << R.status().toString();
    Printed[I] = printProgram(R->Program);
  }
  EXPECT_EQ(Printed[0], Printed[1]);
  // And the fingerprints collapse to one cache entry, as documented.
  driver::CompileOptions F1 = Opts, F4 = Opts;
  F1.Synthesis.Threads = 1;
  F4.Synthesis.Threads = 4;
  EXPECT_EQ(F1.fingerprint(), F4.fingerprint());
}

TEST(EqSatDeterminism, ArmedTimeBudgetIsFingerprinted) {
  driver::CompileOptions Off, Armed, Iters;
  Armed.EqSat.TimeBudgetMs = 50.0;
  Iters.EqSat.MaxIterations = 16;
  // Disabled clock budget: excluded from the key (deterministic result).
  EXPECT_EQ(Off.fingerprint(), driver::CompileOptions().fingerprint());
  // Armed clock budget and iteration budgets: semantically relevant.
  EXPECT_NE(Off.fingerprint(), Armed.fingerprint());
  EXPECT_NE(Off.fingerprint(), Iters.fingerprint());
}

//===----------------------------------------------------------------------===//
// Stats surfacing
//===----------------------------------------------------------------------===//

TEST(EqSatStats, SaturationStatsReachPassRunStats) {
  for (const auto &B : kernels::allKernels()) {
    if (B.Spec.name() != "Box Blur")
      continue;
    Program P = B.Synthesized;
    auto PM = PassManager::fromPipeline("eqsat", managerOptions(P));
    ASSERT_TRUE(PM.hasValue());
    auto Stats = PM->run(P);
    ASSERT_TRUE(Stats.hasValue());
    ASSERT_EQ(Stats->Passes.size(), 1u);
    const PassRunStats &S = Stats->Passes.front();
    EXPECT_TRUE(S.HasEqSat);
    EXPECT_GT(S.EqSatClasses, 0);
    EXPECT_GT(S.EqSatNodes, 0);
    EXPECT_GT(S.EqSatIterations, 0);
    // Box blur's e-graph is small: the default budgets saturate it.
    EXPECT_TRUE(S.EqSatSaturated);
    return;
  }
  ADD_FAILURE() << "Box Blur kernel missing from the registry";
}

TEST(EqSatStats, NodeBudgetStopIsReportedNotSaturated) {
  for (const auto &B : kernels::allKernels()) {
    if (B.Spec.name() != "Variance")
      continue;
    Program P = B.Synthesized;
    auto O = managerOptions(P);
    O.Context.EqSat.MaxNodes = 64; // trip the budget almost immediately
    auto PM = PassManager::fromPipeline("eqsat", O);
    ASSERT_TRUE(PM.hasValue());
    auto Stats = PM->run(P);
    ASSERT_TRUE(Stats.hasValue());
    const PassRunStats &S = Stats->Passes.front();
    EXPECT_TRUE(S.HasEqSat);
    EXPECT_FALSE(S.EqSatSaturated);
    return;
  }
  ADD_FAILURE() << "Variance kernel missing from the registry";
}

std::string readExpected(const std::string &File) {
  const std::string Path = std::string(PORCUPINE_EXPECTED_DIR) + "/" + File;
  std::ifstream In(Path);
  if (!In)
    ADD_FAILURE() << "cannot read " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(EqSatStats, PorcWorkloadTrajectoriesArePinned) {
  // The three .porc workloads stop on the node cap under the default
  // budgets. Saturation is clock-free, so every sweep, merge, and cap
  // check lands the same way on every run: pin the e-graph statistics,
  // the cost, and the extracted program bytes.
  struct Case {
    const char *Name, *Slug;
    int Classes, Nodes, Iterations;
    bool Saturated;
    int Rewrites;
    double Cost;
  };
  const Case Cases[] = {
      {"Conv2D 5x5", "conv2d-5x5", 20038, 40002, 2, false, 0, 96800},
      {"Perceptron 8-4-1", "perceptron-8-4-1", 15776, 40001, 4, false,
       34547, 170200},
      {"Group-By Sum", "group-by-sum", 14844, 40001, 5, false, 28954,
       36000},
  };
  driver::CompileOptions Opts;
  Opts.Pipeline = eqsatPipeline();
  driver::Compiler C(Opts);
  for (const Case &K : Cases) {
    auto R = C.compilePorc(kernels::porcWorkloadSource(K.Name),
                           std::string(K.Slug) + ".porc");
    ASSERT_TRUE(R.hasValue()) << K.Name << ": " << R.status().toString();
    ASSERT_FALSE(R->Optimizer.Passes.empty()) << K.Name;
    const PassRunStats &S = R->Optimizer.Passes.back();
    ASSERT_EQ(S.Pass, "eqsat") << K.Name;
    EXPECT_EQ(S.EqSatClasses, K.Classes) << K.Name;
    EXPECT_EQ(S.EqSatNodes, K.Nodes) << K.Name;
    EXPECT_EQ(S.EqSatIterations, K.Iterations) << K.Name;
    EXPECT_EQ(S.EqSatSaturated, K.Saturated) << K.Name;
    EXPECT_EQ(S.Rewrites, K.Rewrites) << K.Name;
    EXPECT_EQ(R->Cost, K.Cost) << K.Name;
    EXPECT_EQ(printProgram(R->Program),
              readExpected(std::string("eqsat_") + K.Slug + ".quill"))
        << K.Name;
  }
}

TEST(EqSatStats, UnknownPassDiagnosticListsKnownNames) {
  auto PM = PassManager::fromPipeline("peephole,,cse", PassManagerOptions());
  ASSERT_FALSE(PM.hasValue());
  std::string Msg = PM.status().toString();
  // The empty-stage diagnostic now enumerates the registry, so a typo'd
  // pipeline tells the user what would have been accepted.
  EXPECT_NE(Msg.find("known passes:"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("eqsat"), std::string::npos) << Msg;
}

} // namespace
