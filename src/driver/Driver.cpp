//===- driver/Driver.cpp - The Porcupine compiler API ---------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "quill/Interpreter.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>

using namespace porcupine;
using namespace porcupine::driver;

/// \p V rendered with printf format \p Fmt.
static std::string num(double V, const char *Fmt = "%.2f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

Status Compiler::validateOptions() const {
  Status S;
  const synth::SynthesisOptions &Syn = Opts.Synthesis;
  if (Syn.TimeoutSeconds <= 0.0)
    S.addError("options", "synthesis timeout must be positive");
  if (Syn.MinComponents < 1)
    S.addError("options", "MinComponents must be at least 1");
  if (Syn.MaxComponents < Syn.MinComponents)
    S.addError("options", "MaxComponents must be >= MinComponents");
  if (Syn.PlainModulus < 2)
    S.addError("options", "plaintext modulus must be at least 2");
  if (Syn.Threads < 0)
    S.addError("options",
               "synthesis Threads must be >= 0 (0 = one per hardware "
               "thread, 1 = sequential)");
  if (Opts.ExplicitRotations && Opts.ExplicitRotationMaxComponents < 1)
    S.addError("options",
               "ExplicitRotationMaxComponents must be at least 1");
  if (!backend::BackendRegistry::builtin().find(Opts.Backend))
    S.addError("options",
               "unknown execution backend '" + Opts.Backend +
                   "'; available: " +
                   backend::BackendRegistry::builtin().namesCsv());
  // Parse the optimizer pipeline up front so a typo fails compilation with
  // a diagnostic instead of surfacing mid-pipeline.
  auto PM = quill::PassManager::fromPipeline(Opts.Pipeline,
                                             quill::PassManagerOptions());
  if (!PM)
    S.addError("options", PM.status().message());
  return S;
}

Status Compiler::validateProgram(const quill::Program &P,
                                 const char *Stage) const {
  if (P.VectorSize == 0)
    return Status::error(Stage, "program has vector size 0");
  if (P.NumInputs < 1)
    return Status::error(Stage, "program must take at least one input");
  std::string Err = P.validate();
  if (!Err.empty())
    return Status::error(Stage, "malformed program: " + Err);
  return Status::success();
}

/// Shape agreement between a sketch and the spec it is meant to satisfy.
static Status validateSketch(const KernelSpec &Spec, const synth::Sketch &Sk) {
  Status S;
  if (Spec.vectorSize() == 0)
    S.addError("synthesis", "spec vector size must be nonzero");
  if (Sk.NumInputs != Spec.numInputs())
    S.addError("synthesis",
               "sketch takes " + std::to_string(Sk.NumInputs) +
                   " input(s) but the spec takes " +
                   std::to_string(Spec.numInputs()));
  if (Sk.VectorSize != Spec.vectorSize())
    S.addError("synthesis",
               "sketch vector size " + std::to_string(Sk.VectorSize) +
                   " does not match the spec's " +
                   std::to_string(Spec.vectorSize()));
  if (Sk.Menu.empty())
    S.addError("synthesis", "sketch component menu is empty");
  for (const synth::Component &C : Sk.Menu) {
    bool IsCtPt = C.PtIdx >= 0;
    if (IsCtPt && C.PtIdx >= static_cast<int>(Sk.Constants.size()))
      S.addError("synthesis",
                 "sketch component references constant index " +
                     std::to_string(C.PtIdx) + " but the table holds " +
                     std::to_string(Sk.Constants.size()) + " constant(s)");
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Stages
//===----------------------------------------------------------------------===//

Expected<SynthesisOutcome>
Compiler::synthesize(const KernelSpec &Spec, const synth::Sketch &Sk) const {
  Status S = validateOptions();
  if (!S)
    return S;
  return synthesizeWith(Spec, Sk);
}

Expected<SynthesisOutcome>
Compiler::synthesizeWith(const KernelSpec &Spec, const synth::Sketch &Sk,
                         synth::SynthesisStats *FailStats) const {
  Status S = validateSketch(Spec, Sk);
  if (!S)
    return S;

  synth::SynthesisOptions Syn = Opts.Synthesis;
  synth::Sketch Actual = Sk;
  Actual.ExplicitRotations = Opts.ExplicitRotations;
  if (Opts.ExplicitRotations)
    Syn.MaxComponents =
        std::max(Syn.MaxComponents, Opts.ExplicitRotationMaxComponents);

  synth::SynthesisResult R = synth::synthesize(Spec, Actual, Syn);
  if (!R.Found) {
    if (FailStats)
      *FailStats = R.Stats;
    std::string Why = R.Stats.TimedOut
                          ? "synthesis timed out after " +
                                std::to_string(Syn.TimeoutSeconds) + "s"
                          : "sketch space exhausted without a solution";
    return Status::error("synthesis", "kernel '" + Spec.name() + "': " + Why);
  }
  return SynthesisOutcome{std::move(R.Prog), R.Stats};
}

Expected<OptimizeOutcome> Compiler::optimize(const quill::Program &P) const {
  Status S = validateProgram(P, "optimize");
  if (!S)
    return S;

  quill::PassManagerOptions PMO;
  PMO.Context.Latency = Opts.Synthesis.Latency;
  PMO.Context.PlainModulus = Opts.Synthesis.PlainModulus;
  PMO.Context.EqSat = Opts.EqSat;
  // Deterministic verification examples: the pass manager re-interprets
  // the program on these after every pass and rejects any behavioral
  // change. Seeded from the synthesis seed so compiles are reproducible.
  Rng R(Opts.Synthesis.Seed ^ 0x9e3779b97f4a7c15ull);
  for (int E = 0; E < 3; ++E) {
    std::vector<quill::SlotVector> Example;
    for (int I = 0; I < P.NumInputs; ++I)
      Example.push_back(
          R.vectorBelow(Opts.Synthesis.PlainModulus, P.VectorSize));
    PMO.Examples.push_back(std::move(Example));
  }

  auto PM = quill::PassManager::fromPipeline(Opts.Pipeline, std::move(PMO));
  if (!PM)
    return PM.status();
  OptimizeOutcome Out;
  Out.Program = P;
  auto Stats = PM->run(Out.Program);
  if (!Stats)
    return Stats.status();
  Out.Stats = Stats.take();
  return Out;
}

Expected<std::string> Compiler::emit(const quill::Program &P) const {
  Status S = validateProgram(P, "codegen");
  if (!S)
    return S;
  if (Opts.Codegen.FunctionName.empty())
    return Status::error("codegen", "codegen function name must not be empty");
  return emitSealCode(P, Opts.Codegen);
}

Expected<const backend::ExecutorBackend *>
Compiler::findBackend(const char *Stage) const {
  const backend::ExecutorBackend *B =
      backend::BackendRegistry::builtin().find(Opts.Backend);
  if (!B)
    return Status::error(
        Stage, "unknown execution backend '" + Opts.Backend +
                   "'; available: " +
                   backend::BackendRegistry::builtin().namesCsv());
  return B;
}

Expected<ParameterSelection>
Compiler::selectFor(const quill::Program &P) const {
  Status S = validateProgram(P, "parameters");
  if (!S)
    return S;
  auto B = findBackend("parameters");
  if (!B)
    return B.status();
  return porcupine::selectParameters({&P}, **B, Opts.Synthesis.PlainModulus);
}

Expected<BfvParams>
Compiler::selectParameters(const quill::Program &P) const {
  auto Sel = selectFor(P);
  if (!Sel)
    return Sel.status();
  return Sel->Params;
}

Expected<Runtime> Compiler::instantiate(
    const std::vector<const quill::Program *> &Programs) const {
  if (Programs.empty())
    return Status::error("execute", "instantiate() needs at least one program");
  for (const quill::Program *P : Programs) {
    if (!P)
      return Status::error("execute", "instantiate() got a null program");
    Status S = validateProgram(*P, "execute");
    if (!S)
      return S;
  }

  auto Found = findBackend("execute");
  if (!Found)
    return Found.status();
  const backend::ExecutorBackend *B = *Found;

  backend::SessionSpec Spec;
  Spec.Programs = Programs;
  Spec.Params =
      porcupine::selectParameters(Programs, *B, Opts.Synthesis.PlainModulus)
          .Params;
  Spec.ExecutionSeed = Opts.ExecutionSeed;
  Spec.Latency = Opts.Synthesis.Latency;
  auto Exec = B->createExecutor(Spec);
  if (!Exec)
    return Exec.status();

  Runtime RT;
  RT.B = B;
  RT.Caps = B->capabilities();
  RT.Exec = Exec.take();
  RT.KeyedRotations = porcupine::requiredRotations(Programs);
  return RT;
}

Expected<ExecuteOutcome>
Compiler::execute(const quill::Program &P,
                  const std::vector<std::vector<uint64_t>> &Inputs) const {
  Status S = validateProgram(P, "execute");
  if (!S)
    return S;
  S = checkInputs(P.NumInputs, P.VectorSize, Inputs);
  if (!S)
    return S;
  auto RT = instantiate({&P});
  if (!RT)
    return RT.status();
  return RT->execute(P, Inputs, P.VectorSize);
}

Expected<VerifyOutcome> Compiler::verify(const quill::Program &P,
                                         const KernelSpec &Spec) const {
  Status S = validateProgram(P, "verify");
  if (!S)
    return S;
  if (P.VectorSize != Spec.vectorSize() || P.NumInputs != Spec.numInputs())
    return Status::error(
        "verify", "program shape (" + std::to_string(P.NumInputs) +
                      " inputs, width " + std::to_string(P.VectorSize) +
                      ") does not match spec '" + Spec.name() + "' (" +
                      std::to_string(Spec.numInputs()) + " inputs, width " +
                      std::to_string(Spec.vectorSize()) + ")");
  Rng R(Opts.Synthesis.Seed);
  VerifyResult V = verifyProgram(P, Spec, Opts.Synthesis.PlainModulus, R);
  return VerifyOutcome{V.Equivalent, std::move(V.Counterexample)};
}

//===----------------------------------------------------------------------===//
// Whole pipeline
//===----------------------------------------------------------------------===//

Expected<CompileResult>
Compiler::compileFrom(const KernelSpec &Spec, const synth::Sketch &Sk,
                      const quill::Program *Bundled,
                      const std::string &BundledNotes) const {
  Status S = validateOptions();
  if (!S)
    return S;

  CompileResult Res;
  Res.KernelName = Spec.name();

  // Stage 1: pick the program — synthesis, or the bundled anchor.
  if (Opts.RunSynthesis) {
    synth::SynthesisStats AttemptStats;
    auto Syn = synthesizeWith(Spec, Sk, &AttemptStats);
    if (Syn) {
      Res.Program = std::move(Syn->Program);
      Res.Stats = Syn->Stats;
      Res.FromSynthesis = true;
    } else if (Opts.FallbackToBundled && Bundled &&
               !Bundled->Instructions.empty()) {
      Res.Program = *Bundled;
      // Keep the failed attempt's measurements (TimedOut, time spent) so
      // the result and the --json record tell the truth about the run.
      Res.Stats = AttemptStats;
      Res.Notes.push_back({Severity::Warning, "synthesis",
                           Syn.status().message() +
                               "; falling back to the bundled program"});
    } else {
      return Syn.status();
    }
  } else {
    if (!Bundled || Bundled->Instructions.empty())
      return Status::error("synthesis",
                           "kernel '" + Spec.name() +
                               "' has no bundled program and synthesis is "
                               "disabled");
    Res.Program = *Bundled;
    Res.Notes.push_back({Severity::Note, "synthesis",
                         "synthesis skipped; using the bundled program"});
  }
  if (!Res.FromSynthesis && !BundledNotes.empty())
    Res.Notes.push_back({Severity::Note, "synthesis", BundledNotes});

  Status Tail = finishCompile(Res);
  if (!Tail)
    return Tail;
  return Res;
}

Status Compiler::finishCompile(CompileResult &Res) const {
  // Stage 2: the optimizer pipeline, priced under the same latency table
  // as synthesis and the final cost estimate.
  if (!Opts.Pipeline.empty()) {
    auto Opt = optimize(Res.Program);
    if (!Opt)
      return Opt.status();
    Res.Program = std::move(Opt->Program);
    Res.Optimizer = std::move(Opt->Stats);
  }

  // Stages 3 and 4: analyses, cost estimate, parameter selection.
  Status S = analyze(Res);
  if (!S)
    return S;

  // Stage 5: codegen.
  auto Code = emit(Res.Program);
  if (!Code)
    return Code.status();
  Res.SealCode = Code.take();
  return Status::success();
}

Status Compiler::analyze(CompileResult &Res) const {
  // Static analyses and the cost estimate, priced under the same table
  // synthesis minimized against.
  Res.Mix = quill::countInstructions(Res.Program);
  Res.Depth = quill::programDepth(Res.Program);
  Res.MultDepth = quill::programMultiplicativeDepth(Res.Program);
  quill::CostModel Cost(Opts.Synthesis.Latency);
  Res.LatencyEstimateUs = Cost.latency(Res.Program);
  Res.Cost = Cost.cost(Res.Program);

  // Parameter selection, the same call instantiate() makes.
  auto Sel = selectFor(Res.Program);
  if (!Sel)
    return Sel.status();
  Res.Params = Sel->Params;
  Res.PredictedBudgetBits = Sel->PredictedBudgetBits;
  const size_t Row = Sel->Params.PolyDegree / 2;
  if (Res.Program.VectorSize > Row)
    Res.Notes.push_back(
        {Severity::Warning, "parameters",
         "the program is " + std::to_string(Res.Program.VectorSize) +
             " slots wide, more than any parameter set batches (" +
             std::to_string(Row) + "); it cannot run encrypted"});
  else if (!Sel->Certified)
    Res.Notes.push_back(
        {Severity::Warning, "parameters",
         "the noise bound certifies no parameter set (" +
             num(NoiseGuardBits + NoiseMarginBits, "%.0f") +
             " bits needed, " + num(Sel->PredictedBudgetBits, "%.1f") +
             " predicted at N=" + std::to_string(Sel->Params.PolyDegree) +
             " with a " + std::to_string(Sel->Params.coeffModulusBits()) +
             "-bit Q); using the largest, where the runtime noise guard "
             "decides"});
  return Status::success();
}

Expected<CompileResult>
Compiler::compilePorc(const std::string &Source,
                      const std::string &FileName) const {
  Status S = validateOptions();
  if (!S)
    return S;
  if (Opts.SubkernelMaxComponents < 1)
    return Status::error("options",
                         "SubkernelMaxComponents must be at least 1");
  if (Opts.SubkernelTimeoutSeconds <= 0.0)
    return Status::error("options",
                         "SubkernelTimeoutSeconds must be positive");

  Expected<frontend::Module> M = frontend::parse(Source, FileName);
  if (!M)
    return M.status();

  frontend::LowerOptions LO;
  LO.PlainModulus = Opts.Synthesis.PlainModulus;
  LO.SynthSubkernels = Opts.SynthSubkernels;
  LO.SubkernelMaxComponents = Opts.SubkernelMaxComponents;
  LO.SubkernelTimeoutSeconds = Opts.SubkernelTimeoutSeconds;
  LO.Seed = Opts.Synthesis.Seed;
  LO.Threads = Opts.Synthesis.Threads;
  Expected<frontend::LowerResult> L = frontend::lower(*M, LO, FileName);
  if (!L)
    return L.status();

  CompileResult Res;
  Res.KernelName = M->Name;
  Res.Program = std::move(L->Program);
  // The frontend lowered the whole kernel; FromSynthesis stays false even
  // under SynthSubkernels (the notes record which sub-expressions CEGIS
  // found — the program source is still the .porc text).
  Res.FromSynthesis = false;
  Res.Notes = std::move(L->Notes);
  Res.Notes.push_back(
      {Severity::Note, "frontend",
       "lowered " + std::to_string(L->Stats.Assignments) +
           " assignment(s), " + std::to_string(L->Stats.Terms) +
           " term(s) into " + std::to_string(L->Stats.Groups) +
           " rotation group(s), " +
           std::to_string(L->Stats.RotationsScheduled) +
           " distinct rotation(s)"});

  Status Tail = finishCompile(Res);
  if (!Tail)
    return Tail;
  return Res;
}

Expected<CompileResult>
Compiler::compile(const kernels::KernelBundle &B) const {
  return compileFrom(B.Spec, B.Sketch, &B.Synthesized, B.Notes);
}

Expected<CompileResult> Compiler::compile(const KernelSpec &Spec,
                                          const synth::Sketch &Sk) const {
  return compileFrom(Spec, Sk, nullptr, "");
}

Expected<CompileResult>
Compiler::compile(const std::string &KernelName) const {
  auto B = registry().find(KernelName);
  if (!B)
    return B.status();
  return compile(**B);
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Status
porcupine::driver::checkInputs(int NumInputs, size_t MaxWidth,
                               const std::vector<std::vector<uint64_t>> &Inputs) {
  if (static_cast<int>(Inputs.size()) != NumInputs)
    return Status::error("execute", "expected " + std::to_string(NumInputs) +
                                        " input vector(s) but got " +
                                        std::to_string(Inputs.size()));
  for (const std::vector<uint64_t> &V : Inputs)
    if (V.size() > MaxWidth)
      return Status::error("execute", "input vector of width " +
                                          std::to_string(V.size()) +
                                          " exceeds the vector size " +
                                          std::to_string(MaxWidth));
  return Status::success();
}

Expected<ExecuteOutcome>
Runtime::execute(const quill::Program &P,
                 const std::vector<std::vector<uint64_t>> &Inputs,
                 size_t Width) const {
  std::vector<backend::Value> Enc;
  Enc.reserve(Inputs.size());
  for (const std::vector<uint64_t> &V : Inputs) {
    auto Ct = encrypt(V);
    if (!Ct)
      return Ct.status();
    Enc.push_back(Ct.take());
  }
  double ChargedBefore = Exec->chargedLatencyUs();
  auto Ct = run(P, Enc);
  if (!Ct)
    return Ct.status();
  ExecuteOutcome Out;
  Out.Encrypted = Caps.Encrypted;
  if (Caps.Encrypted) {
    // One read-out gives the slots and the budget. A wrapped result's noise
    // is a centred remainder mod Q, so the meter reads a sliver above 0
    // bits, never 0: anything under one whole bit is exhausted, and the
    // slots are discarded.
    backend::Executor::Decrypted D = Exec->decryptWithBudget(*Ct, Width);
    Out.NoiseBudgetBits = D.NoiseBudgetBits;
    if (Out.NoiseBudgetBits < NoiseGuardBits)
      return Status::error(
          "execute",
          "noise budget exhausted (" + std::to_string(Out.NoiseBudgetBits) +
              " bits left) by a program of multiplicative depth " +
              std::to_string(quill::programMultiplicativeDepth(P)) +
              " at N=" + std::to_string(polyDegree()) +
              "; the decrypted result would be wrong");
    Out.Outputs = std::move(D.Slots);
    Out.PolyDegree = polyDegree();
  } else {
    Out.Outputs = decrypt(*Ct, Width);
  }
  Out.ChargedLatencyUs = Exec->chargedLatencyUs() - ChargedBefore;
  return Out;
}

Expected<backend::Value>
Runtime::encrypt(const std::vector<uint64_t> &Values) const {
  if (Values.size() > Exec->slotCount())
    return Status::error("execute",
                         "input vector of width " +
                             std::to_string(Values.size()) +
                             " exceeds the batching row of " +
                             std::to_string(Exec->slotCount()) + " slots");
  return Exec->encrypt(Values);
}

Expected<backend::Value>
Runtime::run(const quill::Program &P,
             const std::vector<backend::Value> &Inputs) const {
  std::string Err = P.validate();
  if (!Err.empty())
    return Status::error("execute", "malformed program: " + Err);
  if (static_cast<int>(Inputs.size()) != P.NumInputs)
    return Status::error("execute",
                         "program takes " + std::to_string(P.NumInputs) +
                             " encrypted input(s) but got " +
                             std::to_string(Inputs.size()));
  if (P.VectorSize > Exec->slotCount())
    return Status::error("execute",
                         "program is wider than the instantiated context");
  if (Caps.Encrypted)
    for (int Step : porcupine::requiredRotations(P))
      if (!std::binary_search(KeyedRotations.begin(), KeyedRotations.end(),
                              Step))
        return Status::error(
            "execute",
            "program rotates by " + std::to_string(Step) +
                " but the runtime was not instantiated with that program; no "
                "Galois key for that step");
  return Exec->run(P, Inputs);
}

std::vector<uint64_t> Runtime::decrypt(const backend::Value &V,
                                       size_t Width) const {
  return Exec->decrypt(V, Width);
}

double Runtime::noiseBudget(const backend::Value &V) const {
  return Exec->noiseBudget(V);
}

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

namespace {

// String interpolation into the record goes through json::escape — kernel
// names, diagnostics, program text, and generated code may contain quotes,
// backslashes, or control characters.
using json::escape;

} // namespace

std::string porcupine::driver::toJson(const CompileResult &R) {
  std::string J = "{\n";
  J += "  \"kernel\": \"" + escape(R.KernelName) + "\",\n";
  J += "  \"from_synthesis\": " + std::string(R.FromSynthesis ? "true" : "false") + ",\n";
  J += "  \"program\": \"" + escape(quill::printProgram(R.Program)) + "\",\n";
  J += "  \"instructions\": {\"total\": " + std::to_string(R.Mix.Total) +
       ", \"rotations\": " + std::to_string(R.Mix.Rotations) +
       ", \"ct_ct_muls\": " + std::to_string(R.Mix.CtCtMuls) +
       ", \"ct_pt_muls\": " + std::to_string(R.Mix.CtPtMuls) +
       ", \"adds_subs\": " + std::to_string(R.Mix.AddsSubs) +
       ", \"relins\": " + std::to_string(R.Mix.Relins) + "},\n";
  J += "  \"depth\": " + std::to_string(R.Depth) + ",\n";
  J += "  \"mult_depth\": " + std::to_string(R.MultDepth) + ",\n";
  J += "  \"latency_us\": " + num(R.LatencyEstimateUs) + ",\n";
  J += "  \"cost\": " + num(R.Cost) + ",\n";
  J += "  \"synthesis\": {\"examples\": " + std::to_string(R.Stats.ExamplesUsed) +
       ", \"components\": " + std::to_string(R.Stats.ComponentsUsed) +
       ", \"lowered_instructions\": " +
       std::to_string(R.Stats.LoweredInstructions) +
       ", \"initial_seconds\": " + num(R.Stats.InitialTimeSeconds) +
       ", \"total_seconds\": " + num(R.Stats.TotalTimeSeconds) +
       ", \"initial_cost\": " + num(R.Stats.InitialCost, "%.0f") +
       ", \"final_cost\": " + num(R.Stats.FinalCost, "%.0f") +
       ", \"timed_out\": " + (R.Stats.TimedOut ? "true" : "false") +
       ", \"proven_optimal\": " + (R.Stats.ProvenOptimal ? "true" : "false") +
       ", \"threads\": " + std::to_string(R.Stats.ThreadsUsed) +
       ", \"cpu_seconds\": " + num(R.Stats.CpuTimeSeconds) + "},\n";
  J += "  \"optimizer\": {\"rewrites\": " +
       std::to_string(R.Optimizer.totalRewrites()) +
       ", \"cost_before\": " + num(R.Optimizer.costBefore(), "%.0f") +
       ", \"cost_after\": " + num(R.Optimizer.costAfter(), "%.0f") +
       ", \"passes\": [";
  for (size_t I = 0; I < R.Optimizer.Passes.size(); ++I) {
    const quill::PassRunStats &PS = R.Optimizer.Passes[I];
    if (I)
      J += ", ";
    J += "{\"pass\": \"" + escape(PS.Pass) + "\"";
    J += ", \"rewrites\": " + std::to_string(PS.Rewrites);
    J += ", \"instructions_removed\": " +
         std::to_string(PS.InstructionsRemoved);
    J += ", \"rotations_eliminated\": " +
         std::to_string(PS.RotationsEliminated);
    J += ", \"relins_deferred\": " + std::to_string(PS.RelinsDeferred);
    J += ", \"cost_before\": " + num(PS.CostBefore, "%.0f");
    J += ", \"cost_after\": " + num(PS.CostAfter, "%.0f");
    J += ", \"reverted\": " + std::string(PS.Reverted ? "true" : "false");
    // Saturation stats appear only on eqsat entries, so records for the
    // default pipeline — including the porcc_compile_dot_product.json
    // expected file — are byte-stable.
    if (PS.HasEqSat)
      J += ", \"eqsat\": {\"classes\": " + std::to_string(PS.EqSatClasses) +
           ", \"nodes\": " + std::to_string(PS.EqSatNodes) +
           ", \"iterations\": " + std::to_string(PS.EqSatIterations) +
           ", \"saturated\": " +
           std::string(PS.EqSatSaturated ? "true" : "false") + "}";
    J += "}";
  }
  J += "]},\n";
  J += "  \"parameters\": {\"poly_degree\": " +
       std::to_string(R.Params.PolyDegree) +
       ", \"coeff_modulus_bits\": " +
       std::to_string(R.Params.coeffModulusBits()) +
       ", \"mult_depth\": " + std::to_string(R.MultDepth) +
       ", \"predicted_budget_bits\": " + num(R.PredictedBudgetBits, "%.1f") +
       "},\n";
  J += "  \"seal_code\": \"" + escape(R.SealCode) + "\",\n";
  J += "  \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + escape(R.Notes[I].toString()) + "\"";
  }
  J += "]\n}\n";
  return J;
}
