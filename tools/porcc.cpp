//===- tools/porcc.cpp - Porcupine compiler driver ------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end of the Porcupine toolchain. Every subcommand is a
/// thin wrapper over the porcupine::driver Compiler API; porcc itself only
/// parses flags, forwards to the driver, and prints results/diagnostics.
///
///   porcc list
///       List the registered kernels (builtin registry) and the multi-step
///       applications.
///   porcc compile <kernel|file.porc> [--json] [--from-bundle] [--timeout S]
///                 [--no-optimize] [--explicit-rot] [--pipeline STR]
///                 [--function NAME] [--emit-artifact FILE]
///                 [--synth-subkernels] [--dump-frontend]
///       Run the full pipeline (synthesis, analyses, parameter selection,
///       SEAL codegen) and print a human-readable report, or with --json a
///       single machine-readable record. --from-bundle skips synthesis and
///       compiles the bundled program (fast, deterministic).
///       A `.porc` argument is compiled from source through the frontend
///       (docs/FRONTEND.md) instead of the kernel registry: index
///       elimination, rotation scheduling, materialization, then the same
///       optimizer/parameters/codegen tail. --dump-frontend prints the two
///       intermediate representations (access table, rotation schedule)
///       before the report; --synth-subkernels routes small per-array
///       sub-expressions through CEGIS synthesis.
///       --emit-artifact persists the compiled kernel as a versioned JSON
///       artifact that `porcc run --artifact` and driver::Engine can
///       warm-start from without re-synthesizing.
///   porcc synth <kernel> [--timeout S] [--no-optimize] [--explicit-rot]
///       Synthesize a kernel from its bundled spec/sketch; print the Quill
///       program, statistics, and generated SEAL code.
///   porcc opt <kernel|file.quill> [--baseline] [--pipeline STR]
///             [--print-after-all] [--json]
///       Debug the optimizer: run a pass pipeline over a bundled program
///       (or a .quill file), printing per-pass statistics — and with
///       --print-after-all the whole program after every pass. --json
///       emits one machine-readable record (cost before/after, per-pass
///       stats). passes_test and eqsat_test pin each bundled kernel's
///       cost and fail when any pass raises it.
///   porcc emit <kernel> [--baseline] [--function NAME]
///       Emit SEAL-style C++ for a bundled program.
///   porcc show <kernel> [--baseline]
///       Print a bundled Quill program and its static analyses.
///   porcc run <file.quill> --inputs "1 2 3;4 5 6" [--encrypted] [--batch]
///   porcc run --artifact <file.json> --inputs "..." [--encrypted] [--batch]
///       Parse a Quill program (or load a compiled-kernel artifact) and
///       execute it (plaintext interpreter, or end-to-end encrypted with
///       --encrypted). With --batch, the inputs string holds several calls
///       separated by '|' ("1 2;3 4|5 6;7 8"), executed as one batch over
///       a shared runtime.
///   porcc bench <kernel> [--runs N] [--batch N] [--pool N] [--synthesize]
///              [--plaintext] [--timeout S]
///       Serving benchmark through driver::Engine: compile once (bundled
///       program unless --synthesize), demonstrate the compile cache, then
///       loop batched encrypted calls and print one machine-readable JSON
///       record with compile latency, per-call latency, and cache hit-rate.
///   porcc check <file.quill> <kernel>
///       Verify a Quill program against a bundled kernel specification.
///
/// Kernel names resolve exact-first, then by unique prefix, then unique
/// substring; ambiguous names fail with the candidate list. Bad input of
/// any kind prints a diagnostic and exits 1 — never aborts. Exit code 2 is
/// reserved for usage errors.
///
//===----------------------------------------------------------------------===//

#include "driver/Artifact.h"
#include "driver/Driver.h"
#include "driver/Engine.h"
#include "driver/Server.h"
#include "frontend/Frontend.h"
#include "kernels/Kernels.h"
#include "math/ModArith.h"
#include "quill/Analysis.h"
#include "quill/Passes.h"
#include "support/Json.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace porcupine;
using namespace porcupine::kernels;

namespace {

int usage() {
  const quill::EqSatBudgets EqSatDefaults;
  std::fprintf(
      stderr,
      "usage: porcc <list|compile|synth|opt|emit|show|run|bench|serve|check> "
      "[args]\n"
      "  porcc list\n"
      "  porcc compile <kernel|file.porc> [--json] [--from-bundle] "
      "[--timeout S] [--no-optimize]\n"
      "                [--jobs N] [--explicit-rot] [--pipeline STR] "
      "[--function NAME]\n"
      "                [--emit-artifact FILE] [--synth-subkernels] "
      "[--dump-frontend]\n"
      "  porcc synth <kernel> [--timeout S] [--no-optimize] [--jobs N] "
      "[--explicit-rot]\n"
      "  porcc opt <kernel|file.quill> [--baseline] [--pipeline STR]\n"
      "            [--print-after-all] [--json] [--eqsat-iters N]\n"
      "            [--eqsat-nodes N] [--eqsat-time-ms MS]\n"
      "  porcc emit <kernel> [--baseline] [--function NAME]\n"
      "  porcc show <kernel> [--baseline]\n"
      "  porcc run <file.quill> --inputs \"1 2 3;4 5 6\" "
      "[--encrypted] [--backend NAME]\n"
      "            [--batch]\n"
      "  porcc run --artifact <file.json> --inputs \"...\" "
      "[--encrypted] [--batch]\n"
      "  porcc bench <kernel> [--runs N] [--batch N] [--pool N] "
      "[--synthesize]\n"
      "             [--plaintext] [--backend NAME] [--timeout S] [--jobs N]\n"
      "  porcc serve <kernel> [--requests N] [--tenants N] [--max-batch N]\n"
      "             [--queue N] [--shards N] [--synthesize]\n"
      "  porcc check <file.quill> <kernel>\n"
      "(--jobs N: synthesis portfolio threads; 0 = one per hardware "
      "thread, 1 = sequential. Same program either way, just faster.\n"
      " --pipeline STR: optimizer pass list, default "
      "'peephole,cse,constfold,rot-dedup,lazy-relin'; '' disables;\n"
      "   append ',eqsat' for the equality-saturation superoptimizer.\n"
      " --eqsat-iters/--eqsat-nodes/--eqsat-time-ms: eqsat saturation "
      "budgets\n"
      "   (defaults %d / %d / %g = no clock, fully deterministic).\n"
      " --backend NAME: execution backend. 'bfv' = in-tree encrypted "
      "runtime,\n"
      "   'dryrun' = keyless plaintext semantics with cost-model charging,\n"
      "   'seal' = Microsoft SEAL (when built with "
      "-DPORCUPINE_WITH_SEAL).\n"
      "   run defaults to dryrun, bench/serve to bfv.\n"
      " compile <file.porc>: compile loop-nest source through the frontend "
      "(docs/FRONTEND.md);\n"
      "   --dump-frontend prints the access table and rotation schedule, "
      "--synth-subkernels\n"
      "   routes small sub-expressions through CEGIS.)\n",
      EqSatDefaults.MaxIterations, EqSatDefaults.MaxNodes,
      EqSatDefaults.TimeBudgetMs);
  return 2;
}

/// True when argument \p I exists and is a positional (not a flag). Keeps
/// `porcc compile --json` (kernel forgotten) on the exit-2 usage path
/// instead of reporting "unknown kernel '--json'".
bool hasPositional(int Argc, char **Argv, int I = 0) {
  return I < Argc && Argv[I][0] != '-';
}

bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 0; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

const char *argValue(int Argc, char **Argv, const char *Flag,
                     const char *Default) {
  for (int I = 0; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return Argv[I + 1];
  return Default;
}

/// Prints every diagnostic of a failed status to stderr and returns 1.
int fail(const Status &S) {
  std::fprintf(stderr, "%s\n", S.toString().c_str());
  return 1;
}

/// Resolves a kernel name through the builtin registry, printing the
/// diagnostic (unknown name, ambiguous prefix with candidates) on failure.
const KernelBundle *lookupKernel(const driver::Compiler &C,
                                 const char *Name) {
  auto B = C.registry().find(Name);
  if (!B) {
    std::fprintf(stderr, "%s\n", B.status().toString().c_str());
    return nullptr;
  }
  return *B;
}

/// Shared flag plumbing for the compile/synth subcommands.
driver::CompileOptions optionsFromFlags(int Argc, char **Argv) {
  driver::CompileOptions Opts;
  Opts.Synthesis.TimeoutSeconds =
      std::atof(argValue(Argc, Argv, "--timeout", "120"));
  Opts.Synthesis.Optimize = !hasFlag(Argc, Argv, "--no-optimize");
  // --jobs N: synthesis portfolio threads (0 = one per hardware thread,
  // 1 = sequential). The result is byte-identical either way; this only
  // changes how fast synthesis converges.
  Opts.Synthesis.Threads = std::atoi(argValue(Argc, Argv, "--jobs", "0"));
  Opts.ExplicitRotations = hasFlag(Argc, Argv, "--explicit-rot");
  // --pipeline STR: the optimizer pass pipeline (default: the full
  // peephole,cse,constfold,rot-dedup,lazy-relin stack; "" disables).
  if (const char *Pipe = argValue(Argc, Argv, "--pipeline", nullptr))
    Opts.Pipeline = Pipe;
  // eqsat saturation budgets (only consulted when the pipeline contains
  // the eqsat pass). Defaults come from EqSatBudgets itself so the CLI
  // can never drift from the library; the time budget stays 0 = disabled
  // so compiles stay deterministic; see CompileOptions::EqSat.
  if (const char *V = argValue(Argc, Argv, "--eqsat-iters", nullptr))
    Opts.EqSat.MaxIterations = std::atoi(V);
  if (const char *V = argValue(Argc, Argv, "--eqsat-nodes", nullptr))
    Opts.EqSat.MaxNodes = std::atoi(V);
  if (const char *V = argValue(Argc, Argv, "--eqsat-time-ms", nullptr))
    Opts.EqSat.TimeBudgetMs = std::atof(V);
  Opts.Codegen.FunctionName = argValue(Argc, Argv, "--function", "kernel");
  // --backend NAME: the execution backend ("bfv", "dryrun", "seal" when
  // built with -DPORCUPINE_WITH_SEAL).
  if (const char *B = argValue(Argc, Argv, "--backend", nullptr))
    Opts.Backend = B;
  // --synth-subkernels: when compiling .porc source, try CEGIS on small
  // per-array sub-expressions (falls back to direct materialization with
  // a note). No effect on registry kernels.
  Opts.SynthSubkernels = hasFlag(Argc, Argv, "--synth-subkernels");
  return Opts;
}

/// Reads a whole file into a string; prints the reason and returns nullopt
/// on failure.
std::optional<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// `porcc compile file.porc`: frontend compilation, with --dump-frontend
/// printing the two intermediate representations (the per-element access
/// table out of index elimination, then the rotation schedule) before the
/// driver takes over.
Expected<driver::CompileResult>
compilePorcFile(const driver::Compiler &C, const char *Path,
                bool DumpFrontend) {
  auto Src = readFile(Path);
  if (!Src)
    return Status::error("frontend",
                         std::string("cannot read '") + Path + "'");
  if (DumpFrontend) {
    auto M = frontend::parse(*Src, Path);
    if (!M)
      return M.status();
    auto T = frontend::eliminateIndices(*M, Path);
    if (!T)
      return T.status();
    std::printf("%s", frontend::printAccessTable(*T).c_str());
    frontend::RotationSchedule S = frontend::scheduleRotations(*T);
    std::printf("%s", frontend::printSchedule(S, *T).c_str());
  }
  return C.compilePorc(*Src, Path);
}

void printAnalyses(const quill::Program &P) {
  auto Mix = quill::countInstructions(P);
  std::printf("; %d instructions (%d rotations, %d ct-ct muls, %d ct-pt "
              "muls, %d adds/subs, %d relins), depth %d, mult-depth %d\n",
              Mix.Total, Mix.Rotations, Mix.CtCtMuls, Mix.CtPtMuls,
              Mix.AddsSubs, Mix.Relins, quill::programDepth(P),
              quill::programMultiplicativeDepth(P));
}

void printNotes(const std::vector<Diagnostic> &Notes) {
  for (const Diagnostic &D : Notes)
    std::fprintf(stderr, "%s\n", D.toString().c_str());
}

int cmdList() {
  driver::Compiler C;
  std::printf("%-24s %6s %7s %-s\n", "kernel", "inputs", "width", "layout");
  for (const std::string &Name : C.registry().names()) {
    auto B = C.registry().find(Name);
    if (!B)
      return fail(B.status());
    std::printf("%-24s %6d %7zu %s\n", (*B)->Spec.name().c_str(),
                (*B)->Spec.numInputs(), (*B)->Spec.vectorSize(),
                (*B)->Spec.layout().Description.c_str());
  }
  std::printf("%-24s %6d %7zu %s\n", "Sobel (multi-step)", 1,
              ImageGeom::Slots, sobelApp().Spec.layout().Description.c_str());
  std::printf("%-24s %6d %7zu %s\n", "Harris (multi-step)", 1,
              ImageGeom::Slots,
              harrisApp().Spec.layout().Description.c_str());
  return 0;
}

int cmdCompile(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv))
    return usage();
  driver::CompileOptions Opts = optionsFromFlags(Argc, Argv);
  Opts.RunSynthesis = !hasFlag(Argc, Argv, "--from-bundle");
  Opts.FallbackToBundled = false;
  driver::Compiler C(Opts);
  std::string Target = Argv[0];
  bool IsPorc =
      Target.size() > 5 && Target.rfind(".porc") == Target.size() - 5;
  auto Result =
      IsPorc ? compilePorcFile(C, Argv[0],
                               hasFlag(Argc, Argv, "--dump-frontend"))
             : C.compile(Target);
  if (!Result)
    return fail(Result.status());

  if (const char *Path = argValue(Argc, Argv, "--emit-artifact", nullptr)) {
    Status S = driver::saveArtifact(*Result, Opts, Path);
    if (!S)
      return fail(S);
    std::fprintf(stderr, "note [artifact]: wrote '%s' (fingerprint %s)\n",
                 Path,
                 driver::compileFingerprint(Result->KernelName, Opts).c_str());
  }

  if (hasFlag(Argc, Argv, "--json")) {
    std::printf("%s", driver::toJson(*Result).c_str());
    return 0;
  }

  printNotes(Result->Notes);
  std::printf("kernel: %s (%s)\n", Result->KernelName.c_str(),
              Result->FromSynthesis ? "synthesized"
              : IsPorc             ? "compiled from .porc source"
                                   : "bundled program");
  printAnalyses(Result->Program);
  std::printf("%s", quill::printProgram(Result->Program).c_str());
  std::printf("cost: latency %.0f us, paper cost %.0f\n",
              Result->LatencyEstimateUs, Result->Cost);
  if (Result->FromSynthesis)
    std::printf("synthesis: %d example(s), %.2fs total%s%s\n",
                Result->Stats.ExamplesUsed, Result->Stats.TotalTimeSeconds,
                Result->Stats.ProvenOptimal ? ", proven optimal in sketch"
                                            : "",
                Result->Stats.TimedOut ? ", timed out" : "");
  std::printf("parameters: N=%zu, %u-bit coeff modulus, mult-depth %d, "
              "predicted noise budget %.1f bits\n\n",
              Result->Params.PolyDegree, Result->Params.coeffModulusBits(),
              Result->MultDepth, Result->PredictedBudgetBits);
  std::printf("%s", Result->SealCode.c_str());
  return 0;
}

int cmdSynth(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv))
    return usage();
  driver::CompileOptions Opts = optionsFromFlags(Argc, Argv);
  Opts.FallbackToBundled = false;
  driver::Compiler C(Opts);
  const KernelBundle *B = lookupKernel(C, Argv[0]);
  if (!B)
    return 1;

  std::printf("synthesizing %s (timeout %.0fs)...\n", B->Spec.name().c_str(),
              Opts.Synthesis.TimeoutSeconds);
  auto Result = C.compile(*B);
  if (!Result)
    return fail(Result.status());
  std::printf("\n");
  printAnalyses(Result->Program);
  std::printf("%s\n", quill::printProgram(Result->Program).c_str());
  std::printf("stats: %d example(s), initial %.2fs, total %.2fs, cost %.0f "
              "-> %.0f%s%s\n\n",
              Result->Stats.ExamplesUsed, Result->Stats.InitialTimeSeconds,
              Result->Stats.TotalTimeSeconds, Result->Stats.InitialCost,
              Result->Stats.FinalCost,
              Result->Stats.ProvenOptimal ? ", proven optimal in sketch" : "",
              Result->Stats.TimedOut ? ", timed out" : "");
  std::printf("%s", Result->SealCode.c_str());
  return 0;
}

std::optional<quill::Program> loadProgram(const char *Path);

/// `porcc opt`: run an optimizer pipeline over one program, one pass at a
/// time, reporting per-pass statistics (and, with --print-after-all, the
/// program after every pass). Each pass is one Compiler::optimize() call
/// with that pass as the whole pipeline, so intermediate programs are
/// observable while verification, its examples and the cost-monotonicity
/// guard are exactly those of `porcc compile --pipeline`.
int cmdOpt(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv))
    return usage();
  const char *Target = Argv[0];
  bool PrintAfterAll = hasFlag(Argc, Argv, "--print-after-all");
  bool Json = hasFlag(Argc, Argv, "--json");
  // --pipeline and the --eqsat-* budgets, read as `porcc compile` does.
  driver::Compiler C(optionsFromFlags(Argc, Argv));
  const std::string Pipeline = C.options().Pipeline;

  // Resolve the program: a .quill file, or a bundled kernel by name.
  quill::Program P;
  std::string Name = Target;
  if (Name.size() > 6 && Name.rfind(".quill") == Name.size() - 6) {
    auto Loaded = loadProgram(Target);
    if (!Loaded)
      return 1;
    P = std::move(*Loaded);
  } else {
    const KernelBundle *B = lookupKernel(C, Target);
    if (!B)
      return 1;
    Name = B->Spec.name();
    P = hasFlag(Argc, Argv, "--baseline") ? B->Baseline : B->Synthesized;
    if (P.Instructions.empty()) {
      std::fprintf(stderr, "error: kernel '%s' has no bundled program\n",
                   Name.c_str());
      return 1;
    }
  }

  // Validate the whole pipeline string through the one real parser first,
  // so `porcc opt` accepts and rejects exactly what `porcc compile
  // --pipeline` does (empty segments, unknown names, stray spaces).
  {
    auto Whole = quill::PassManager::fromPipeline(
        Pipeline, quill::PassManagerOptions());
    if (!Whole)
      return fail(Whole.status());
  }
  // Then split into single-pass stages so we can print between them. An
  // empty pipeline is a valid no-op.
  std::vector<std::string> Stages;
  std::string Cur;
  for (char Ch : Pipeline + ",") {
    if (Ch == ',') {
      if (!Cur.empty())
        Stages.push_back(Cur);
      Cur.clear();
    } else if (Ch != ' ') {
      Cur.push_back(Ch);
    }
  }

  quill::CostModel Cost(C.options().Synthesis.Latency);
  std::vector<quill::PassRunStats> All;
  if (!Json) {
    std::printf("; optimizing '%s' with pipeline '%s'\n", Name.c_str(),
                Pipeline.c_str());
    printAnalyses(P);
    std::printf("%s", quill::printProgram(P).c_str());
    std::printf("; cost %.0f\n", Cost.cost(P));
  }
  for (const std::string &Stage : Stages) {
    C.options().Pipeline = Stage;
    auto Opt = C.optimize(P);
    if (!Opt)
      return fail(Opt.status());
    P = std::move(Opt->Program);
    for (quill::PassRunStats &S : Opt->Stats.Passes) {
      if (!Json) {
        std::printf("; pass %-10s rewrites %d, instrs %+d, rotations %+d, "
                    "relins deferred %d, cost %.0f -> %.0f%s\n",
                    S.Pass.c_str(), S.Rewrites, -S.InstructionsRemoved,
                    -S.RotationsEliminated, S.RelinsDeferred, S.CostBefore,
                    S.CostAfter, S.Reverted ? " (REVERTED: cost rose)" : "");
        if (PrintAfterAll && S.HasEqSat)
          std::printf("; eqsat e-graph: %d classes, %d nodes, %d "
                      "iteration%s, %s\n",
                      S.EqSatClasses, S.EqSatNodes, S.EqSatIterations,
                      S.EqSatIterations == 1 ? "" : "s",
                      S.EqSatSaturated ? "saturated"
                                       : "stopped by budget");
        if (PrintAfterAll)
          std::printf("%s", quill::printProgram(P).c_str());
      }
      All.push_back(std::move(S));
    }
  }

  if (Json) {
    double CostBefore = All.empty() ? Cost.cost(P) : All.front().CostBefore;
    double CostAfter = All.empty() ? Cost.cost(P) : All.back().CostAfter;
    std::printf("{\n");
    std::printf("  \"kernel\": %s,\n", json::quote(Name).c_str());
    std::printf("  \"pipeline\": %s,\n", json::quote(Pipeline).c_str());
    std::printf("  \"cost_before\": %.0f,\n", CostBefore);
    std::printf("  \"cost_after\": %.0f,\n", CostAfter);
    std::printf("  \"passes\": [");
    for (size_t I = 0; I < All.size(); ++I) {
      const quill::PassRunStats &S = All[I];
      std::printf("%s{\"pass\": %s, \"rewrites\": %d, "
                  "\"instructions_removed\": %d, "
                  "\"rotations_eliminated\": %d, \"relins_deferred\": %d, "
                  "\"cost_before\": %.0f, \"cost_after\": %.0f, "
                  "\"reverted\": %s",
                  I ? ", " : "", json::quote(S.Pass).c_str(), S.Rewrites,
                  S.InstructionsRemoved, S.RotationsEliminated,
                  S.RelinsDeferred, S.CostBefore, S.CostAfter,
                  S.Reverted ? "true" : "false");
      if (S.HasEqSat)
        std::printf(", \"eqsat\": {\"classes\": %d, \"nodes\": %d, "
                    "\"iterations\": %d, \"saturated\": %s}",
                    S.EqSatClasses, S.EqSatNodes, S.EqSatIterations,
                    S.EqSatSaturated ? "true" : "false");
      std::printf("}");
    }
    std::printf("]\n}\n");
    return 0;
  }

  std::printf("; final program\n");
  printAnalyses(P);
  std::printf("%s", quill::printProgram(P).c_str());
  std::printf("; cost %.0f\n", Cost.cost(P));
  return 0;
}

int cmdEmitOrShow(int Argc, char **Argv, bool Emit) {
  if (!hasPositional(Argc, Argv))
    return usage();
  driver::Compiler C;
  C.options().Codegen.FunctionName =
      argValue(Argc, Argv, "--function", "kernel");
  const KernelBundle *B = lookupKernel(C, Argv[0]);
  if (!B)
    return 1;
  const quill::Program &P =
      hasFlag(Argc, Argv, "--baseline") ? B->Baseline : B->Synthesized;
  if (Emit) {
    auto Code = C.emit(P);
    if (!Code)
      return fail(Code.status());
    std::printf("%s", Code->c_str());
  } else {
    printAnalyses(P);
    std::printf("%s", quill::printProgram(P).c_str());
  }
  return 0;
}

std::optional<std::vector<quill::SlotVector>>
parseInputs(const std::string &Text, size_t Width, uint64_t T) {
  std::vector<quill::SlotVector> Inputs;
  std::stringstream Stream(Text);
  std::string Part;
  while (std::getline(Stream, Part, ';')) {
    quill::SlotVector V;
    std::istringstream Vals(Part);
    long long X;
    while (Vals >> X)
      V.push_back(toResidue(X, T));
    if (V.size() > Width)
      return std::nullopt;
    V.resize(Width, 0);
    Inputs.push_back(std::move(V));
  }
  return Inputs;
}

/// Reads and parses a .quill file; on failure prints the reason and
/// returns nullopt.
std::optional<quill::Program> loadProgram(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  quill::Program P;
  std::string Error;
  if (!quill::parseProgram(Buf.str(), P, Error)) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return std::nullopt;
  }
  return P;
}

/// Splits a --batch inputs string ("1 2;3 4|5 6;7 8") into one input set
/// per '|'-separated call. Without \p Batch the whole string is one call.
std::optional<std::vector<std::vector<quill::SlotVector>>>
parseBatchInputs(const std::string &Text, bool Batch, size_t Width,
                 uint64_t T) {
  std::vector<std::vector<quill::SlotVector>> Calls;
  std::stringstream Stream(Text);
  std::string Part;
  if (!Batch) {
    auto One = parseInputs(Text, Width, T);
    if (!One)
      return std::nullopt;
    Calls.push_back(std::move(*One));
    return Calls;
  }
  while (std::getline(Stream, Part, '|')) {
    auto One = parseInputs(Part, Width, T);
    if (!One)
      return std::nullopt;
    Calls.push_back(std::move(*One));
  }
  return Calls;
}

/// Prints one call's outputs; \p PredictedBits is the static noise bound's
/// budget for the program, printed beside the measured one.
void printOutcome(const driver::ExecuteOutcome &Out, uint64_t PlainModulus,
                  double PredictedBits) {
  if (Out.Encrypted)
    std::printf("; executed under BFV (N=%zu), noise budget left %.1f "
                "bits (predicted %.1f)\n",
                Out.PolyDegree, Out.NoiseBudgetBits, PredictedBits);
  else
    std::printf("; executed by the keyless dry-run backend (mod %llu)\n",
                static_cast<unsigned long long>(PlainModulus));
  for (uint64_t V : Out.Outputs)
    std::printf("%llu ", static_cast<unsigned long long>(V));
  std::printf("\n");
}

int cmdRun(int Argc, char **Argv) {
  const char *ArtifactPath = argValue(Argc, Argv, "--artifact", nullptr);
  if (!ArtifactPath && !hasPositional(Argc, Argv))
    return usage();
  bool Batch = hasFlag(Argc, Argv, "--batch");
  // `porcc run` defaults to the keyless dry-run backend so quick input
  // probing pays no key generation; --encrypted (or --backend bfv)
  // selects real encrypted execution.
  const char *Backend =
      argValue(Argc, Argv, "--backend",
               hasFlag(Argc, Argv, "--encrypted") ? "bfv" : "dryrun");
  const char *InputText = argValue(Argc, Argv, "--inputs", "");

  if (ArtifactPath) {
    // Serving path: warm-start an Engine from the artifact and execute the
    // batch over the kernel's pooled runtimes.
    driver::EngineOptions EO;
    EO.Defaults.Backend = Backend;
    driver::Engine E(EO);
    auto K = E.loadArtifact(ArtifactPath);
    if (!K)
      return fail(K.status());
    const driver::CompiledKernel &Kernel = **K;
    uint64_t T = Kernel.options().Synthesis.PlainModulus;
    auto Calls = parseBatchInputs(InputText, Batch,
                                  Kernel.program().VectorSize, T);
    if (!Calls || Calls->empty()) {
      std::fprintf(stderr,
                   "error: kernel '%s' needs %d input vector(s) of width <= "
                   "%zu per call (';' between vectors, '|' between --batch "
                   "calls)\n",
                   Kernel.name().c_str(), Kernel.program().NumInputs,
                   Kernel.program().VectorSize);
      return 1;
    }
    std::printf("; kernel '%s' from artifact (fingerprint %s)\n",
                Kernel.name().c_str(), Kernel.fingerprint().c_str());
    auto Many = Kernel.executeMany(*Calls);
    if (!Many)
      return fail(Many.status());
    for (const driver::ExecuteOutcome &Out : *Many)
      printOutcome(Out, T, Kernel.result().PredictedBudgetBits);
    return 0;
  }

  auto P = loadProgram(Argv[0]);
  if (!P)
    return 1;
  driver::CompileOptions COpts;
  COpts.Backend = Backend;
  driver::Compiler C(COpts);
  uint64_t T = C.options().Synthesis.PlainModulus;
  auto Calls = parseBatchInputs(InputText, Batch, P->VectorSize, T);
  if (!Calls || Calls->empty()) {
    std::fprintf(stderr,
                 "error: program needs %d input vector(s) of width <= %zu "
                 "per call (';' between vectors, '|' between --batch "
                 "calls)\n",
                 P->NumInputs, P->VectorSize);
    return 1;
  }
  // Like the artifact path: check the whole batch before running any of
  // it, then serve every call from one runtime (one set of keys).
  for (const auto &Call : *Calls) {
    Status S = driver::checkInputs(P->NumInputs, P->VectorSize, Call);
    if (!S)
      return fail(S);
  }
  auto RT = C.instantiate({&*P});
  if (!RT)
    return fail(RT.status());
  double Predicted =
      selectParameters({&*P}, RT->backendInfo(), T).PredictedBudgetBits;
  for (const auto &Call : *Calls) {
    auto Out = RT->execute(*P, Call, P->VectorSize);
    if (!Out)
      return fail(Out.status());
    printOutcome(*Out, T, Predicted);
  }
  return 0;
}

int cmdBench(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv))
    return usage();
  int Runs = std::atoi(argValue(Argc, Argv, "--runs", "16"));
  int Batch = std::atoi(argValue(Argc, Argv, "--batch", "4"));
  int Pool = std::atoi(argValue(Argc, Argv, "--pool", "2"));
  // `porcc bench` measures the real thing by default: encrypted BFV.
  // --plaintext (or --backend dryrun) benches the keyless dry-run path.
  const char *Backend =
      argValue(Argc, Argv, "--backend",
               hasFlag(Argc, Argv, "--plaintext") ? "dryrun" : "bfv");
  if (Runs < 1 || Batch < 1 || Pool < 1) {
    std::fprintf(stderr, "error: --runs/--batch/--pool must be positive\n");
    return 1;
  }

  driver::EngineOptions EO;
  EO.Defaults = optionsFromFlags(Argc, Argv);
  EO.Defaults.Backend = Backend;
  EO.Defaults.RunSynthesis = hasFlag(Argc, Argv, "--synthesize");
  EO.RuntimePoolSize = static_cast<size_t>(Pool);
  driver::Engine E(EO);

  Stopwatch CompileWatch;
  auto K = E.get(Argv[0]);
  if (!K)
    return fail(K.status());
  double CompileMs = CompileWatch.micros() / 1000.0;
  // The second lookup must be served from the cache; its hit shows up in
  // the stats this record reports.
  auto Again = E.get(Argv[0]);
  if (!Again || *Again != *K)
    return fail(Status::error("bench", "second get() was not a cache hit"));

  const driver::CompiledKernel &Kernel = **K;
  const quill::Program &P = Kernel.program();
  uint64_t T = Kernel.options().Synthesis.PlainModulus;

  // Deterministic synthetic traffic: distinct small values per call so
  // repeated runs are comparable machine to machine.
  std::vector<std::vector<std::vector<uint64_t>>> Calls;
  for (int RunIdx = 0; RunIdx < Batch; ++RunIdx) {
    std::vector<std::vector<uint64_t>> Call;
    for (int In = 0; In < P.NumInputs; ++In) {
      std::vector<uint64_t> V(P.VectorSize);
      for (size_t Slot = 0; Slot < V.size(); ++Slot)
        V[Slot] = (static_cast<uint64_t>(RunIdx) * 31 +
                   static_cast<uint64_t>(In) * 13 + Slot * 7 + 1) %
                  std::min<uint64_t>(T, 251);
      Call.push_back(std::move(V));
    }
    Calls.push_back(std::move(Call));
  }

  // Warmup builds the first pooled runtime (context + keys) so the timed
  // loop measures steady-state serving latency.
  auto Warm = Kernel.execute(Calls.front());
  if (!Warm)
    return fail(Warm.status());

  int CallsDone = 0;
  double TotalUs = 0.0, MinUs = 0.0, MaxUs = 0.0;
  double LastNoise = Warm->NoiseBudgetBits;
  while (CallsDone < Runs) {
    int ThisBatch = std::min(Batch, Runs - CallsDone);
    std::vector<std::vector<std::vector<uint64_t>>> Slice(
        Calls.begin(), Calls.begin() + ThisBatch);
    Stopwatch W;
    auto Many = Kernel.executeMany(Slice);
    double Us = W.micros();
    if (!Many)
      return fail(Many.status());
    double PerCall = Us / ThisBatch;
    if (!CallsDone || PerCall < MinUs)
      MinUs = PerCall;
    if (!CallsDone || PerCall > MaxUs)
      MaxUs = PerCall;
    TotalUs += Us;
    CallsDone += ThisBatch;
    if (!Many->empty())
      LastNoise = Many->back().NoiseBudgetBits;
  }

  driver::EngineStats S = E.stats();
  double MeanUs = TotalUs / CallsDone;
  std::printf("{\n");
  std::printf("  \"kernel\": %s,\n", json::quote(Kernel.name()).c_str());
  std::printf("  \"fingerprint\": %s,\n",
              json::quote(Kernel.fingerprint()).c_str());
  std::printf("  \"from_synthesis\": %s,\n",
              Kernel.result().FromSynthesis ? "true" : "false");
  std::printf("  \"backend\": %s,\n", json::quote(Backend).c_str());
  std::printf("  \"encrypted\": %s,\n", Warm->Encrypted ? "true" : "false");
  std::printf("  \"compile_ms\": %.3f,\n", CompileMs);
  // Synthesis timing is no longer implicitly serial: record the measured
  // wall time alongside the thread count that produced it so bench
  // history stays comparable across --jobs settings and machine sizes.
  std::printf("  \"synthesis_ms\": %.3f,\n",
              Kernel.result().FromSynthesis
                  ? Kernel.result().Stats.TotalTimeSeconds * 1000.0
                  : 0.0);
  std::printf("  \"synthesis_threads\": %d,\n",
              Kernel.result().FromSynthesis
                  ? Kernel.result().Stats.ThreadsUsed
                  : 0);
  std::printf("  \"runs\": %d,\n", CallsDone);
  std::printf("  \"batch\": %d,\n", Batch);
  std::printf("  \"runtime_pool\": %zu,\n", Kernel.runtimePoolSize());
  std::printf("  \"per_call_us\": {\"mean\": %.1f, \"min\": %.1f, "
              "\"max\": %.1f},\n",
              MeanUs, MinUs, MaxUs);
  std::printf("  \"throughput_calls_per_s\": %.2f,\n",
              MeanUs > 0 ? 1e6 / MeanUs : 0.0);
  std::printf("  \"noise_budget_bits\": %.1f,\n", LastNoise);
  // Cost-model latency one call charges on this backend (0 for real
  // backends, which spend wall-clock instead). Host-independent: the
  // porcc_cli_compile_json golden pins the same charge.
  std::printf("  \"charged_latency_us\": %.1f,\n", Warm->ChargedLatencyUs);
  std::printf("  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
              "\"hit_rate\": %.3f}\n",
              static_cast<unsigned long long>(S.Hits),
              static_cast<unsigned long long>(S.Misses), S.hitRate());
  std::printf("}\n");
  return 0;
}

/// `porcc serve`: smoke-drives the multi-tenant serving tier (driver::Server)
/// end to end — admission, cross-request batching, per-tenant keys — and
/// prints a JSON summary plus the Prometheus metrics dump on stderr.
int cmdServe(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv))
    return usage();
  int Requests = std::atoi(argValue(Argc, Argv, "--requests", "16"));
  int Tenants = std::atoi(argValue(Argc, Argv, "--tenants", "2"));
  int MaxBatch = std::atoi(argValue(Argc, Argv, "--max-batch", "16"));
  int Queue = std::atoi(argValue(Argc, Argv, "--queue", "256"));
  int Shards = std::atoi(argValue(Argc, Argv, "--shards", "1"));
  if (Requests < 1 || Tenants < 1 || MaxBatch < 1 || Queue < 1 ||
      Shards < 0) {
    std::fprintf(stderr, "error: serve flags must be positive "
                         "(--shards may be 0 = hardware cores)\n");
    return 1;
  }

  driver::ServerOptions SO;
  SO.NumShards = static_cast<unsigned>(Shards);
  SO.QueueCapacity = static_cast<size_t>(Queue);
  SO.MaxBatch = static_cast<size_t>(MaxBatch);
  SO.Engine.Defaults = optionsFromFlags(Argc, Argv);
  SO.Engine.Defaults.RunSynthesis = hasFlag(Argc, Argv, "--synthesize");
  driver::Server S(SO);

  auto B = S.registry().find(Argv[0]);
  if (!B)
    return fail(B.status());
  const KernelSpec &Spec = (*B)->Spec;
  uint64_t T = SO.Engine.Defaults.Synthesis.PlainModulus;

  // Deterministic synthetic traffic round-robined over the tenants, all
  // submitted up front so the batcher actually sees concurrent requests.
  Stopwatch Wall;
  std::vector<std::future<Expected<driver::Response>>> Futs;
  size_t Rejected = 0;
  for (int I = 0; I < Requests; ++I) {
    driver::Request R;
    R.Kernel = Spec.name();
    R.Tenant = "tenant-" + std::to_string(I % Tenants);
    for (int In = 0; In < Spec.numInputs(); ++In) {
      std::vector<uint64_t> V(Spec.vectorSize());
      for (size_t Slot = 0; Slot < V.size(); ++Slot)
        V[Slot] = (static_cast<uint64_t>(I) * 31 +
                   static_cast<uint64_t>(In) * 13 + Slot * 7 + 1) %
                  std::min<uint64_t>(T, 251);
      R.Inputs.push_back(std::move(V));
    }
    auto F = S.submit(std::move(R));
    if (F)
      Futs.push_back(std::move(*F));
    else {
      ++Rejected;
      std::fprintf(stderr, "reject: %s\n", F.status().toString().c_str());
    }
  }
  size_t Served = 0, Failed = 0, Batched = 0;
  double SumUs = 0, MaxUs = 0;
  for (auto &F : Futs) {
    auto R = F.get();
    if (!R) {
      ++Failed;
      std::fprintf(stderr, "fail: %s\n", R.status().toString().c_str());
      continue;
    }
    ++Served;
    if (R->Batched)
      ++Batched;
    SumUs += static_cast<double>(R->TotalUs);
    MaxUs = std::max(MaxUs, static_cast<double>(R->TotalUs));
  }
  double WallMs = Wall.micros() / 1000.0;

  std::fprintf(stderr, "%s", S.metricsText().c_str());
  std::printf("{\n");
  std::printf("  \"kernel\": %s,\n", json::quote(Spec.name()).c_str());
  std::printf("  \"requests\": %d,\n", Requests);
  std::printf("  \"tenants\": %d,\n", Tenants);
  std::printf("  \"shards\": %u,\n", S.numShards());
  std::printf("  \"max_batch\": %d,\n", MaxBatch);
  std::printf("  \"served\": %zu,\n", Served);
  std::printf("  \"failed\": %zu,\n", Failed + Rejected);
  std::printf("  \"batched\": %zu,\n", Batched);
  std::printf("  \"wall_ms\": %.1f,\n", WallMs);
  std::printf("  \"throughput_rps\": %.1f,\n",
              WallMs > 0 ? 1000.0 * static_cast<double>(Served) / WallMs
                         : 0.0);
  std::printf("  \"mean_latency_us\": %.0f,\n",
              Served ? SumUs / static_cast<double>(Served) : 0.0);
  std::printf("  \"max_latency_us\": %.0f\n", MaxUs);
  std::printf("}\n");
  return Served == Futs.size() && Rejected == 0 ? 0 : 1;
}

int cmdCheck(int Argc, char **Argv) {
  if (!hasPositional(Argc, Argv, 0) || !hasPositional(Argc, Argv, 1))
    return usage();
  auto P = loadProgram(Argv[0]);
  if (!P)
    return 1;
  driver::Compiler C;
  const KernelBundle *B = lookupKernel(C, Argv[1]);
  if (!B)
    return 1;
  auto V = C.verify(*P, B->Spec);
  if (!V)
    return fail(V.status());
  if (V->Equivalent) {
    std::printf("OK: program is equivalent to '%s' on all inputs\n",
                B->Spec.name().c_str());
    return 0;
  }
  std::printf("FAIL: not equivalent; counterexample input(s):\n");
  for (const auto &Vec : V->Counterexample) {
    for (uint64_t X : Vec)
      std::printf("%llu ", static_cast<unsigned long long>(X));
    std::printf("\n");
  }
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "compile")
    return cmdCompile(Argc - 2, Argv + 2);
  if (Cmd == "synth")
    return cmdSynth(Argc - 2, Argv + 2);
  if (Cmd == "opt")
    return cmdOpt(Argc - 2, Argv + 2);
  if (Cmd == "emit")
    return cmdEmitOrShow(Argc - 2, Argv + 2, /*Emit=*/true);
  if (Cmd == "show")
    return cmdEmitOrShow(Argc - 2, Argv + 2, /*Emit=*/false);
  if (Cmd == "run")
    return cmdRun(Argc - 2, Argv + 2);
  if (Cmd == "bench")
    return cmdBench(Argc - 2, Argv + 2);
  if (Cmd == "serve")
    return cmdServe(Argc - 2, Argv + 2);
  if (Cmd == "check")
    return cmdCheck(Argc - 2, Argv + 2);
  return usage();
}
