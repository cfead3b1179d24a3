//===- perfbench/src/CompileWorkload.cpp - The `compile` workload ---------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop with one caller compiling every kernel from source: the
/// seven fast CEGIS kernels through Compiler::compile (synthesis on, no
/// fallback, default pipeline) and the three `.porc` workloads through
/// Compiler::compilePorc (default pipeline plus eqsat). Synthesis and
/// eqsat do nearly all the work, each on its own half; eqsat stays off the
/// CEGIS half, where it never lowers cost.
///
/// Schedule: CEGIS pass, .porc kernel, three times (every kernel compiles
/// at least once), then further CEGIS passes until the time is up. Every
/// compiled program is checked against the spec (see checkProgram).
///
/// The traced variant compiles each kernel stage by stage through the
/// public entry points (synthesize or frontend parse + lower, optimize once
/// per pass, selectParameters, emit) and checks that the final cost equals
/// the untraced compile's.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include "driver/Driver.h"
#include "kernels/KernelRegistry.h"
#include "quill/CostModel.h"
#include "quill/Interpreter.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>

using namespace perfbench;
using namespace porcupine;

namespace {

struct Kernel {
  std::string Name, Slug;
  bool Porc = false;
  const kernels::KernelBundle *Bundle = nullptr;
  /// Seeded reference inputs every compiled program is checked on.
  std::vector<std::vector<std::vector<uint64_t>>> Checks;
  double BaselineCost = 0;
};

/// Everything built before the first timed compile.
struct Setup {
  std::unique_ptr<kernels::KernelRegistry> Registry;
  std::unique_ptr<driver::Compiler> Cegis, Porc, Dry;
  std::vector<Kernel> Kernels;
};

std::unique_ptr<Setup> buildSetup(uint64_t Seed) {
  auto S = std::make_unique<Setup>();
  // A fresh registry copy materializes every bundle again (specs,
  // sketches, baselines, .porc lowering), so each set-up does real work.
  S->Registry = std::make_unique<kernels::KernelRegistry>(
      kernels::KernelRegistry::builtin());
  driver::CompileOptions C;
  C.FallbackToBundled = false;
  C.Synthesis.Threads = SynthThreads;
  S->Cegis = std::make_unique<driver::Compiler>(C, S->Registry.get());
  driver::CompileOptions P = C;
  P.Pipeline = std::string(quill::defaultPipeline()) + ",eqsat";
  S->Porc = std::make_unique<driver::Compiler>(P, S->Registry.get());
  driver::CompileOptions D;
  D.Backend = "dryrun";
  S->Dry = std::make_unique<driver::Compiler>(D, S->Registry.get());

  Rng R(Seed);
  auto Add = [&](const std::string &Name, bool Porc) {
    Kernel K;
    K.Name = Name;
    K.Slug = slug(Name);
    K.Porc = Porc;
    auto B = S->Registry->find(Name);
    if (!B) {
      std::fprintf(stderr, "perfbench: %s\n", B.status().message().c_str());
      std::exit(2);
    }
    K.Bundle = *B;
    for (int I = 0; I < 2; ++I)
      K.Checks.push_back(K.Bundle->Spec.randomInputs(R, PlainModulus));
    K.BaselineCost = baselineCost(Name);
    S->Kernels.push_back(std::move(K));
  };
  for (const std::string &N : cegisKernels())
    Add(N, false);
  for (const std::string &N : porcKernels())
    Add(N, true);
  return S;
}

std::vector<std::string> splitPipeline(const std::string &Pipeline) {
  std::vector<std::string> Out;
  std::stringstream SS(Pipeline);
  for (std::string Item; std::getline(SS, Item, ',');)
    Out.push_back(Item);
  return Out;
}

/// Per-run accumulators.
struct Tally {
  std::map<std::string, std::vector<double>> UntracedMs, TracedMs;
  std::map<std::string, double> Cost, TracedCost;
  // Deterministic per-layer counts, from each kernel's first traced compile.
  std::map<std::string, int> Rewrites;
  std::map<std::string, size_t> Instructions;
  std::map<std::string, bool> CountedOnce;
  long EqSatNodes = 0;
  int EqSatSaturated = 0;
  long SynthNodes = 0;
  long SynthExamples = 0;
  double SynthCpu = 0, SynthWall = 0;
  bool SelfTested = false;
  /// Kernels whose program is wrong at the ciphertext row width.
  std::map<std::string, bool> RowMismatch;
};

/// Checks a compiled program on every check input, first through the
/// interpreter at the program's own width, then on the dryrun backend at
/// the ciphertext row width, as encrypted execution runs it. A mismatch
/// is a failed operation, except at the row width on a RowWidthKnownBad
/// kernel, where it is counted in quill.row_mismatches. Stops at the
/// first error or counted mismatch, so a program fails at most once.
void checkProgram(Setup &S, const Kernel &K, const quill::Program &P,
                  Report &R, Tally &T) {
  OutputCheck Check(R);
  const KernelSpec &Spec = K.Bundle->Spec;
  const bool KnownBad =
      std::find(std::begin(RowWidthKnownBad), std::end(RowWidthKnownBad),
                K.Name) != std::end(RowWidthKnownBad);
  for (const auto &In : K.Checks) {
    quill::SlotVector Out = quill::interpret(P, In, PlainModulus);
    if (!Check.check(Spec, In, Out, "compile " + K.Slug))
      return;
    if (!T.SelfTested) {
      selfTest(R, Spec, In, Out);
      T.SelfTested = true;
    }
    auto Row = S.Dry->execute(P, In);
    if (!Row) {
      R.fail("compile " + K.Slug + ": dryrun: " + Row.status().message());
      return;
    }
    const std::string What = "compile " + K.Slug + " at the row width";
    if (!KnownBad) {
      if (!Check.check(Spec, In, Row->Outputs, What))
        return;
      continue;
    }
    Report Exempt;
    if (!OutputCheck(Exempt).check(Spec, In, Row->Outputs,
                                   What + " (known, not counted)"))
      T.RowMismatch[K.Slug] = true;
  }
}

void compileUntraced(Setup &S, const Kernel &K, Report &R, Tally &T) {
  auto Start = std::chrono::steady_clock::now();
  auto Res = K.Porc ? S.Porc->compilePorc(
                          kernels::porcWorkloadSource(K.Name), K.Slug + ".porc")
                    : S.Cegis->compile(K.Name);
  double Seconds = secondsSince(Start);
  ++R.Attempted;
  if (!Res) {
    R.fail("compile " + K.Slug + ": " + Res.status().message());
    return;
  }
  if (!K.Porc && !Res->FromSynthesis) {
    R.fail("compile " + K.Slug + ": synthesis did not produce the program");
    return;
  }
  // A wrong program is a failed operation but still timed, so the run
  // reports correct=false rather than missing metrics.
  checkProgram(S, K, Res->Program, R, T);
  auto Prev = T.Cost.find(K.Slug);
  if (Prev != T.Cost.end() && Prev->second != Res->Cost)
    R.incorrect("compile " + K.Slug + ": cost changed between passes");
  T.Cost[K.Slug] = Res->Cost;
  T.UntracedMs[K.Slug].push_back(Seconds * 1e3);
}

void compileTraced(Setup &S, const Kernel &K, Report &R, Tally &T) {
  driver::Compiler Stage(K.Porc ? S.Porc->options() : S.Cegis->options(),
                         S.Registry.get());
  const std::vector<std::string> Passes =
      splitPipeline(Stage.options().Pipeline);
  const bool First = !T.CountedOnce[K.Slug];
  ++R.Attempted;
  quill::Program P;
  auto Start = std::chrono::steady_clock::now();
  {
    Span Root("driver", "compile", K.Slug);
    if (!K.Porc) {
      auto Syn = [&] {
        Span Sp("synth", "Compiler::synthesize", K.Slug);
        return Stage.synthesize(K.Bundle->Spec, K.Bundle->Sketch);
      }();
      if (!Syn) {
        R.fail("synthesize " + K.Slug + ": " + Syn.status().message());
        return;
      }
      P = Syn->Program;
      const synth::SynthesisStats &St = Syn->Stats;
      T.SynthCpu += St.CpuTimeSeconds;
      T.SynthWall += St.TotalTimeSeconds;
      if (First) {
        T.SynthNodes += St.NodesExplored;
        T.SynthExamples += St.ExamplesUsed;
      }
    } else {
      const std::string File = K.Slug + ".porc";
      auto M = [&] {
        Span Sp("frontend", "frontend::parse", K.Slug);
        return frontend::parse(kernels::porcWorkloadSource(K.Name), File);
      }();
      if (!M) {
        R.fail("parse " + K.Slug + ": " + M.status().message());
        return;
      }
      // The same lowering options Compiler::compilePorc derives.
      frontend::LowerOptions LO;
      const driver::CompileOptions &CO = Stage.options();
      LO.PlainModulus = CO.Synthesis.PlainModulus;
      LO.SynthSubkernels = CO.SynthSubkernels;
      LO.SubkernelMaxComponents = CO.SubkernelMaxComponents;
      LO.SubkernelTimeoutSeconds = CO.SubkernelTimeoutSeconds;
      LO.Seed = CO.Synthesis.Seed;
      LO.Threads = CO.Synthesis.Threads;
      auto L = [&] {
        Span Sp("frontend", "frontend::lower", K.Slug);
        return frontend::lower(*M, LO, File);
      }();
      if (!L) {
        R.fail("lower " + K.Slug + ": " + L.status().message());
        return;
      }
      P = L->Program;
      if (First)
        T.Instructions[K.Slug] = P.Instructions.size();
    }
    for (const std::string &Pass : Passes) {
      Stage.options().Pipeline = Pass;
      auto Opt = [&] {
        Span Sp("quill", "Compiler::optimize", Pass + "/" + K.Slug);
        return Stage.optimize(P);
      }();
      if (!Opt) {
        R.fail("optimize " + K.Slug + " (" + Pass +
               "): " + Opt.status().message());
        return;
      }
      P = Opt->Program;
      if (First && !Opt->Stats.Passes.empty()) {
        const quill::PassRunStats &PS = Opt->Stats.Passes.front();
        T.Rewrites[Pass] += PS.Reverted ? 0 : PS.Rewrites;
        if (PS.HasEqSat) {
          T.EqSatNodes += PS.EqSatNodes;
          T.EqSatSaturated += PS.EqSatSaturated ? 1 : 0;
        }
      }
    }
    auto Params = [&] {
      Span Sp("backend", "Compiler::selectParameters", K.Slug);
      return Stage.selectParameters(P);
    }();
    auto Code = [&] {
      Span Sp("backend", "Compiler::emit", K.Slug);
      return Stage.emit(P);
    }();
    if (!Params || !Code) {
      R.fail("params/emit " + K.Slug);
      return;
    }
  }
  T.TracedMs[K.Slug].push_back(secondsSince(Start) * 1e3);
  T.CountedOnce[K.Slug] = true;
  checkProgram(S, K, P, R, T);
  const backend::ExecutorBackend *Bfv =
      backend::BackendRegistry::builtin().find("bfv");
  T.TracedCost[K.Slug] = quill::CostModel(Bfv->latencyTable()).cost(P);
}

/// Sum over tags (kernels) of each tag's median span duration, in ms;
/// tags may carry a "<pass>/" prefix selected by \p Prefix.
double sumOfMedians(const std::string &Name, const std::string &Prefix = "") {
  double Sum = 0;
  for (const auto &KV : Tracer::instance().durationsByTag(Name))
    if (KV.first.compare(0, Prefix.size(), Prefix) == 0)
      Sum += median(KV.second);
  return Sum;
}

} // namespace

void perfbench::runCompile(const Options &O, Report &R, double Seconds,
                           bool Traced, bool Primary) {
  // A set-up takes about a millisecond, so set-ups timed back to back all
  // read the host at one instant. The run also times a spare set-up before
  // every CEGIS pass (dropped outside the timed region), and setup_s is
  // their p10, not their median: within one run they split into a fast
  // and a slow group (about 1.3 ms and 2 ms), so the median jumps between
  // the two from run to run, while the p10 stays within a few percent.
  std::vector<double> SetupSeconds;
  auto TimedSetup = [&] {
    auto Start = std::chrono::steady_clock::now();
    std::unique_ptr<Setup> New = buildSetup(O.Seed);
    SetupSeconds.push_back(secondsSince(Start));
    return New;
  };
  std::unique_ptr<Setup> S = TimedSetup();

  Tally T;
  Rng Order(O.Seed ^ 0xc0ffee);
  std::vector<Kernel *> Cegis, Porc;
  for (Kernel &K : S->Kernels)
    (K.Porc ? Porc : Cegis).push_back(&K);
  for (size_t I = Porc.size(); I > 1; --I)
    std::swap(Porc[I - 1], Porc[Order.below(I)]);

  const bool Untraced = Primary || !Traced;
  int Round = 0;
  auto CompileOne = [&](Kernel &K) {
    // Alternate which variant goes first so drift hits both alike.
    bool TracedFirst = Round % 2 == 1;
    if (Traced && TracedFirst)
      compileTraced(*S, K, R, T);
    if (Untraced)
      compileUntraced(*S, K, R, T);
    if (Traced && !TracedFirst)
      compileTraced(*S, K, R, T);
  };
  auto CegisPass = [&] {
    if (Primary)
      TimedSetup();
    for (size_t I = Cegis.size(); I > 1; --I)
      std::swap(Cegis[I - 1], Cegis[Order.below(I)]);
    for (Kernel *K : Cegis)
      CompileOne(*K);
    ++Round;
  };

  auto Start = std::chrono::steady_clock::now();
  for (Kernel *K : Porc) {
    CegisPass();
    CompileOne(*K);
  }
  while (Primary && secondsSince(Start) < Seconds)
    CegisPass();

  // Public results: compile times and costs per kernel.
  std::vector<double> MinMs, CostRatio;
  for (Kernel &K : S->Kernels) {
    auto &Samples = T.UntracedMs[K.Slug].empty() ? T.TracedMs[K.Slug]
                                                 : T.UntracedMs[K.Slug];
    double Cost = T.Cost.count(K.Slug) ? T.Cost[K.Slug] : T.TracedCost[K.Slug];
    if (Samples.empty() || Cost <= 0)
      continue;
    MinMs.push_back(*std::min_element(Samples.begin(), Samples.end()));
    CostRatio.push_back(Cost / K.BaselineCost);
    R.set("compile." + K.Slug + "_ms", median(Samples), "ms");
    R.set("quill.cost." + K.Slug, Cost, "cost");
    std::fprintf(stderr, "compile %-24s %s ms  cost %.0f (baseline %.0f)\n",
                 K.Slug.c_str(), describe(Samples, 1.0).c_str(), Cost,
                 K.BaselineCost);
    if (T.Cost.count(K.Slug) && T.TracedCost.count(K.Slug) &&
        T.Cost[K.Slug] != T.TracedCost[K.Slug])
      R.incorrect("compile " + K.Slug + ": stage-by-stage cost " +
                  std::to_string(T.TracedCost[K.Slug]) +
                  " differs from Compiler::compile's " +
                  std::to_string(T.Cost[K.Slug]));
  }

  std::fprintf(stderr, "compile: set-up n=%zu p10=%.6f p50=%.6f s\n",
               SetupSeconds.size(), quantile(SetupSeconds, 0.1),
               median(SetupSeconds));
  std::string Wrong;
  for (const auto &KV : T.RowMismatch)
    Wrong += " " + KV.first;
  R.set("quill.row_mismatches", static_cast<double>(T.RowMismatch.size()),
        "count");
  if (!Wrong.empty())
    std::fprintf(stderr,
                 "compile: correct at program width but wrong at the "
                 "ciphertext row width (dryrun):%s\n",
                 Wrong.c_str());

  if (Primary && MinMs.size() == S->Kernels.size()) {
    R.set("setup_s", quantile(SetupSeconds, 0.1), "s");
    R.set("fast_ms", geomean(MinMs), "ms");
    R.set("cost_vs_baseline", geomean(CostRatio), "ratio");
  }

  if (!Traced)
    return;
  const std::vector<std::string> Passes =
      splitPipeline(S->Porc->options().Pipeline);
  for (const std::string &Pass : Passes) {
    R.set("quill.pass." + Pass + "_ms",
          sumOfMedians("Compiler::optimize", Pass + "/"), "ms");
    R.set("quill.pass." + Pass + ".rewrites", T.Rewrites[Pass], "count");
  }
  R.set("quill.eqsat.nodes", static_cast<double>(T.EqSatNodes), "count");
  R.set("quill.eqsat.saturated", T.EqSatSaturated, "count");
  R.set("synth.s", sumOfMedians("Compiler::synthesize") / 1e3, "s");
  R.set("synth.nodes", static_cast<double>(T.SynthNodes), "count");
  R.set("synth.examples", static_cast<double>(T.SynthExamples), "count");
  R.set("synth.cpu_per_wall", T.SynthWall > 0 ? T.SynthCpu / T.SynthWall : 0,
        "ratio");
  R.set("frontend.parse_ms", sumOfMedians("frontend::parse"), "ms");
  R.set("frontend.lower_ms", sumOfMedians("frontend::lower"), "ms");
  for (const auto &KV : T.Instructions)
    R.set("frontend.instructions." + KV.first,
          static_cast<double>(KV.second), "count");
  R.set("backend.params_ms", sumOfMedians("Compiler::selectParameters"), "ms");
  R.set("backend.emit_ms", sumOfMedians("Compiler::emit"), "ms");

  if (Primary) {
    std::vector<double> Ratios;
    for (Kernel &K : S->Kernels)
      if (!T.TracedMs[K.Slug].empty() && !T.UntracedMs[K.Slug].empty())
        Ratios.push_back(median(T.TracedMs[K.Slug]) /
                         median(T.UntracedMs[K.Slug]));
    R.set("trace.overhead_ratio", geomean(Ratios), "ratio");
    std::fprintf(stderr,
                 "tracing overhead (stage-by-stage traced / Compiler::compile, "
                 "geomean of per-kernel medians): %.4f\n",
                 geomean(Ratios));
  }
}
