//===- driver/Driver.h - The Porcupine compiler API -------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the whole toolchain — spec + sketch in,
/// verified vectorized HE kernel out — in the shape production HE compilers
/// expose (EVA's CKKSCompiler, HECO's pass-pipeline driver): one Compiler
/// facade configured by a single CompileOptions, returning a CompileResult
/// that carries the Quill program, synthesis statistics, static analyses,
/// the chosen BFV parameters, and the emitted SEAL code.
///
/// Every pipeline stage is also an individual entry point, so callers can
/// stop anywhere:
///
///   Compiler C;                         // or Compiler(options, &registry)
///   auto R  = C.compile("dot product"); // whole pipeline, by kernel name
///   auto F  = C.compilePorc(Src, "f.porc"); // ...or from .porc source
///   auto S  = C.synthesize(Spec, Sk);   // ...or stage by stage
///   auto O  = C.optimize(S->Program);
///   auto CG = C.emit(O->Program);
///   auto X  = C.execute(O->Program, Inputs);
///   auto V  = C.verify(O->Program, Spec);
///
/// Error contract: anything a caller can get wrong (unknown kernel names,
/// inconsistent options, malformed programs, wrong-shaped inputs) returns a
/// failed Expected<> carrying Diagnostics — never fatalError/abort. The
/// driver validates at the boundary so the layers underneath may keep their
/// assert-based invariants.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_DRIVER_DRIVER_H
#define PORCUPINE_DRIVER_DRIVER_H

#include "backend/ExecutorBackend.h"
#include "backend/ParameterSelector.h"
#include "backend/SealCodeGen.h"
#include "frontend/Frontend.h"
#include "kernels/KernelRegistry.h"
#include "quill/Analysis.h"
#include "quill/Passes.h"
#include "spec/Equivalence.h"
#include "support/Status.h"
#include "synth/Synthesizer.h"

#include <memory>
#include <string>
#include <vector>

namespace porcupine {
namespace driver {

/// Everything that configures a compilation, in one object.
struct CompileOptions {
  /// Synthesis tunables: component bounds, timeout, cost-minimization
  /// phase, plaintext modulus, PRNG seed, the latency table, and the
  /// portfolio thread count `Synthesis.Threads` (0 = one worker per
  /// hardware thread, 1 = the exact sequential search; surfaced as
  /// `porcc --jobs`).
  /// Thread count never changes the synthesized program — the portfolio's
  /// deterministic tie-break guarantees byte-identical results for every
  /// value — so it is deliberately *excluded* from canonicalKey(): a
  /// deployment may retune it freely without invalidating compile caches
  /// or artifacts.
  ///
  /// `Synthesis.Latency` is the one latency table of a compile: CEGIS
  /// minimizes against it, the optimizer pipeline prices passes with it,
  /// CompileResult::Cost is computed under it, and the dry-run backend
  /// charges executions with it. It defaults to the calibrated constants;
  /// a measured table is one assignment away
  /// (`Opts.Synthesis.Latency = profileLatencies(...)`,
  /// backend/LatencyProfiler.h).
  synth::SynthesisOptions Synthesis;

  /// Run CEGIS synthesis. When false, compile() takes the bundled
  /// synthesized program (kernel-name/bundle overloads only).
  bool RunSynthesis = true;

  /// When synthesis fails (timeout/exhaustion) and a bundled program
  /// exists, fall back to it with a warning instead of failing.
  bool FallbackToBundled = true;

  /// Frontend (.porc) lowering: route small per-array sub-expressions
  /// through CEGIS synthesis instead of direct materialization (porcc
  /// --synth-subkernels). The whole-kernel program is identical in
  /// semantics either way; synthesis may find cheaper instruction
  /// sequences for sub-expressions within the component budget, and falls
  /// back to direct materialization (with a note) when it cannot.
  bool SynthSubkernels = false;
  /// Component budget per synthesized sub-expression; sub-expressions
  /// estimated larger than this are materialized directly without an
  /// attempt.
  int SubkernelMaxComponents = 4;
  /// CEGIS timeout per sub-expression attempt, seconds.
  double SubkernelTimeoutSeconds = 5.0;

  /// Rotation policy: ablation mode where rotations are standalone sketch
  /// components instead of operand holes (paper section 7.4).
  bool ExplicitRotations = false;
  /// Component budget used when ExplicitRotations is on (rotations consume
  /// components, so the sketch needs more of them).
  int ExplicitRotationMaxComponents = 12;

  /// Named optimizer pipeline (quill::PassManager) run over the chosen
  /// program: a comma-separated pass list, validated at compile time. The
  /// default pipeline recovers cost synthesis cannot express — lazy
  /// relinearization, rotation sharing — on top of the classical rewrite
  /// rules; it never increases cost-model cost (cost-increasing passes are
  /// reverted) and semantic preservation is re-verified by interpreting
  /// deterministic examples after every pass. Empty string disables
  /// optimization entirely.
  std::string Pipeline = quill::defaultPipeline();

  /// Budgets for the `eqsat` pass when the pipeline includes it
  /// (quill::EqSatBudgets: iteration / node / wall-clock caps). The
  /// iteration and node budgets are fingerprinted; the wall-clock budget
  /// enters canonicalKey() only when armed (> 0) — disabled (the
  /// default), saturation is iteration-bounded and deterministic, so the
  /// field cannot change what a compile produces (the same rule that
  /// keeps Synthesis.Threads out of the key).
  quill::EqSatBudgets EqSat;

  /// Which execution backend runs compiled programs: a name in
  /// backend::BackendRegistry::builtin() — "bfv" (the in-tree encrypted
  /// runtime), "dryrun" (keyless plaintext semantics charging cost-model
  /// latencies), or "seal" when built with -DPORCUPINE_WITH_SEAL.
  /// Fingerprinted, so the Engine's compile cache and artifacts can never
  /// serve a kernel compiled for one backend to a request for another.
  std::string Backend = "bfv";

  /// Codegen options for the SEAL-style C++ every compile emits
  /// (function name, comments).
  SealCodeGenOptions Codegen;

  /// Seed for execution-side randomness (keys, encryption noise).
  uint64_t ExecutionSeed = 1;

  /// Canonical, injective rendering of every option that can change what a
  /// compile produces or how the result executes, with keys in a fixed
  /// alphabetical order — two CompileOptions built by assigning fields in
  /// any order render identically iff they request the same compilation.
  /// This is the options half of the Engine's compile-cache key.
  std::string canonicalKey() const;

  /// 64-bit FNV-1a hash of canonicalKey() as 16 lowercase hex digits; the
  /// compact form recorded in artifacts and surfaced by porcc.
  std::string fingerprint() const;
};

/// Fingerprint of one (kernel, options) compile pair: FNV-1a over the
/// kernel name and the options' canonical key. Identical pairs always
/// collide (that is the point — the Engine never re-synthesizes them).
std::string compileFingerprint(const std::string &KernelName,
                               const CompileOptions &Opts);

/// What one full compile() produces.
struct CompileResult {
  std::string KernelName;
  /// The compiled (and, when a pipeline is configured, optimized) Quill
  /// program. May be in explicit-relin form (Program::ExplicitRelin) when
  /// the lazy-relin pass found relinearizations to elide or share.
  quill::Program Program;
  /// True when Program came out of synthesis this run; false when it is the
  /// bundled program (RunSynthesis off, or fallback after a failure).
  bool FromSynthesis = false;
  /// Synthesis measurements. On a fallback these are the *failed*
  /// attempt's stats (TimedOut etc.); zeroed when synthesis never ran.
  synth::SynthesisStats Stats;
  /// Per-pass optimizer statistics (empty when Pipeline is empty).
  quill::PipelineStats Optimizer;

  // Static analyses of Program.
  quill::InstrMix Mix;
  int Depth = 0;
  int MultDepth = 0;
  /// Estimated latency (microseconds) and paper cost under
  /// CompileOptions::Synthesis.Latency.
  double LatencyEstimateUs = 0.0;
  double Cost = 0.0;

  /// The BFV parameters selectParameters() chose for Program on the
  /// options' backend: what every runtime instantiated for it builds.
  BfvParams Params;
  /// The static noise bound's final budget for Program at Params, in bits:
  /// at most what the runtime meter reads after a run.
  double PredictedBudgetBits = 0.0;
  /// Generated SEAL-style C++.
  std::string SealCode;

  /// Non-fatal notes and warnings accumulated along the pipeline.
  std::vector<Diagnostic> Notes;
};

/// synthesize() stage output.
struct SynthesisOutcome {
  quill::Program Program;
  synth::SynthesisStats Stats;
};

/// optimize() stage output.
struct OptimizeOutcome {
  quill::Program Program;
  quill::PipelineStats Stats;
};

/// execute() stage output.
struct ExecuteOutcome {
  /// Decrypted (or interpreted) output slots: the program's VectorSize, or
  /// the whole batching row for CompiledKernel::executePacked().
  std::vector<uint64_t> Outputs;
  bool Encrypted = false;
  /// Remaining invariant noise budget in bits (encrypted runs only).
  double NoiseBudgetBits = 0.0;
  /// Ring dimension of the context the run used (encrypted runs only).
  size_t PolyDegree = 0;
  /// Cost-model latency the backend charged for this run (dry-run only;
  /// real backends spend wall-clock instead and report 0).
  double ChargedLatencyUs = 0.0;
};

/// verify() stage output.
struct VerifyOutcome {
  bool Equivalent = false;
  /// On inequivalence: concrete inputs on which program and spec differ.
  std::vector<std::vector<uint64_t>> Counterexample;
};

/// Checks one input set's shape: exactly \p NumInputs vectors, each at
/// most \p MaxWidth (the vector size) slots wide — shorter vectors are
/// zero-filled by encryption. Fails with stage "execute".
Status checkInputs(int NumInputs, size_t MaxWidth,
                   const std::vector<std::vector<uint64_t>> &Inputs);

/// A ready-to-run execution environment for a fixed set of programs on one
/// backend: owns the backend session (its keys, with Galois keys for
/// exactly the rotations the set requires) over the context the backend
/// shares for the parameters selectParameters() picks for the set.
/// Produced by Compiler::instantiate(); movable, not copyable. Values are
/// opaque backend::Value handles — real ciphertexts on "bfv"/"seal", slot
/// vectors on "dryrun" — and callers cannot (and must not) tell the
/// difference.
class Runtime {
public:
  Runtime(Runtime &&) = default;
  Runtime &operator=(Runtime &&) = default;

  /// One evaluation of \p P — the execution path every driver entry point
  /// (Compiler::execute, CompiledKernel, Server) shares: encrypts each
  /// input (at most slotCount() wide, zero-filled to the row), runs, and
  /// decrypts the first \p Width slots (VectorSize, or slotCount() for a
  /// packed row). On encrypted backends the slots and the noise budget
  /// come from one Executor::decryptWithBudget call. A result whose budget
  /// fell under one whole bit would decrypt to garbage, so it is refused
  /// with a stage "execute" error naming the multiplicative depth and N.
  Expected<ExecuteOutcome>
  execute(const quill::Program &P,
          const std::vector<std::vector<uint64_t>> &Inputs,
          size_t Width) const;

  /// Encrypts one input vector (at most one batching row wide).
  Expected<backend::Value> encrypt(const std::vector<uint64_t> &Values) const;

  /// Runs \p P over session values. \p P must have been part of the
  /// instantiate() set (or need no rotations beyond that set's keys, on
  /// backends that key rotations at all) and \p Inputs must match its
  /// input count.
  Expected<backend::Value> run(const quill::Program &P,
                               const std::vector<backend::Value> &Inputs) const;

  /// Decrypts the first \p Width slots of a result.
  std::vector<uint64_t> decrypt(const backend::Value &V, size_t Width) const;

  /// Remaining invariant noise budget of a value, in bits (0 on backends
  /// whose capabilities().Encrypted is false).
  double noiseBudget(const backend::Value &V) const;

  /// The backend session, by interface.
  const backend::Executor &executor() const { return *Exec; }
  /// The backend this runtime was instantiated on.
  const backend::ExecutorBackend &backendInfo() const { return *B; }
  /// The backend's capability bits (cached at instantiation).
  const backend::BackendCapabilities &capabilities() const { return Caps; }

  /// Geometry/modulus of the session, forwarded from the backend.
  size_t slotCount() const { return Exec->slotCount(); }
  size_t polyDegree() const { return Exec->polyDegree(); }
  uint64_t plainModulus() const { return Exec->plainModulus(); }

private:
  friend class Compiler;
  Runtime() = default;

  const backend::ExecutorBackend *B = nullptr; // Registry-owned.
  backend::BackendCapabilities Caps;
  std::unique_ptr<backend::Executor> Exec;
  std::vector<int> KeyedRotations; // Sorted; for run()-time validation.
};

/// The compiler facade. Holds the options and the kernel registry the
/// name-based overloads resolve against (defaults to the builtin catalog).
class Compiler {
public:
  Compiler() = default;
  explicit Compiler(CompileOptions Opts,
                    const kernels::KernelRegistry *Registry = nullptr)
      : Opts(std::move(Opts)), Registry(Registry) {}

  CompileOptions &options() { return Opts; }
  const CompileOptions &options() const { return Opts; }
  const kernels::KernelRegistry &registry() const {
    return Registry ? *Registry : kernels::KernelRegistry::builtin();
  }

  //===--------------------------------------------------------------------===
  // Whole pipeline
  //===--------------------------------------------------------------------===

  /// Looks \p KernelName up in the registry (exact, then unique prefix,
  /// then unique substring; kernels::KernelRegistry::find) and compiles
  /// the bundle.
  Expected<CompileResult> compile(const std::string &KernelName) const;

  /// Compiles a bundle: synthesize (or take the bundled program), the
  /// optimizer pipeline (skipped when Pipeline is empty), analyses,
  /// parameter selection, codegen.
  Expected<CompileResult> compile(const kernels::KernelBundle &B) const;

  /// Compiles a bare spec + sketch (no bundled program to fall back to).
  Expected<CompileResult> compile(const KernelSpec &Spec,
                                  const synth::Sketch &Sk) const;

  /// Compiles `.porc` source text (frontend::parse + frontend::lower):
  /// index elimination, rotation scheduling, materialization into
  /// explicit-relin Quill — then the same optimizer pipeline, analyses,
  /// parameter selection, and codegen as every other compile. Synthesis
  /// options apply only to sub-expressions when SynthSubkernels is on;
  /// RunSynthesis/FallbackToBundled are ignored (the frontend is the
  /// program source). \p FileName seeds line/column diagnostics and the
  /// kernel name (basename without extension).
  Expected<CompileResult> compilePorc(const std::string &Source,
                                      const std::string &FileName) const;

  //===--------------------------------------------------------------------===
  // Individual stages
  //===--------------------------------------------------------------------===

  /// CEGIS synthesis of \p Spec against \p Sk under the options' tunables
  /// (rotation policy applied). Fails with a diagnostic on timeout or
  /// sketch exhaustion.
  Expected<SynthesisOutcome> synthesize(const KernelSpec &Spec,
                                        const synth::Sketch &Sk) const;

  /// Runs the options' optimizer pipeline over \p P with per-pass
  /// interpreter verification on deterministic examples (seeded from
  /// Synthesis.Seed). An empty Pipeline returns \p P unchanged.
  Expected<OptimizeOutcome> optimize(const quill::Program &P) const;

  /// SEAL-style C++ for \p P under the options' codegen settings.
  Expected<std::string> emit(const quill::Program &P) const;

  /// The cheapest standard 128-bit-security BFV parameters on which the
  /// noise bound certifies \p P on the options' backend
  /// (porcupine::selectParameters).
  Expected<BfvParams> selectParameters(const quill::Program &P) const;

  /// Builds an execution environment for \p Programs on the options'
  /// backend (Opts.Backend), handing it the parameters
  /// porcupine::selectParameters() picks for the set on that backend under
  /// the options' plaintext modulus. Keys are generated fresh; the backend
  /// shares its immutable per-parameter state (the BFV context) with
  /// every live runtime on the same parameters.
  Expected<Runtime>
  instantiate(const std::vector<const quill::Program *> &Programs) const;

  /// One-shot end-to-end run of \p P on \p Inputs (one vector per program
  /// input, each at most VectorSize wide; values taken mod the plaintext
  /// modulus) on the options' backend — encrypted on "bfv"/"seal",
  /// plaintext-with-charged-cost on "dryrun": validation, instantiate(),
  /// then Runtime::execute() over VectorSize output slots.
  Expected<ExecuteOutcome>
  execute(const quill::Program &P,
          const std::vector<std::vector<uint64_t>> &Inputs) const;

  /// Exact symbolic verification of \p P against \p Spec; inequivalence is
  /// a *successful* call with Equivalent == false and a counterexample.
  Expected<VerifyOutcome> verify(const quill::Program &P,
                                 const KernelSpec &Spec) const;

private:
  friend class Engine; // Re-analyzes the programs of loaded artifacts.

  Status validateOptions() const;
  /// The registered backend Opts.Backend names; fails with \p Stage.
  Expected<const backend::ExecutorBackend *>
  findBackend(const char *Stage) const;
  /// porcupine::selectParameters() for \p P on the options' backend.
  Expected<ParameterSelection> selectFor(const quill::Program &P) const;
  Status validateProgram(const quill::Program &P, const char *Stage) const;
  /// synthesize() without the options check compile() has already made.
  /// On failure, \p FailStats (when given) receives the attempt's
  /// measurements so fallback results can still report them.
  Expected<SynthesisOutcome>
  synthesizeWith(const KernelSpec &Spec, const synth::Sketch &Sk,
                 synth::SynthesisStats *FailStats = nullptr) const;
  Expected<CompileResult> compileFrom(const KernelSpec &Spec,
                                      const synth::Sketch &Sk,
                                      const quill::Program *Bundled,
                                      const std::string &BundledNotes) const;
  /// The tail every compile shares once Res.Program is chosen: optimizer
  /// pipeline, analyze(), codegen.
  Status finishCompile(CompileResult &Res) const;
  /// Recomputes everything Res reports about Res.Program: instruction mix,
  /// depths, the cost estimate under Synthesis.Latency, and the parameters
  /// and predicted budget on the options' backend (with a warning note
  /// when no rung certifies the program).
  Status analyze(CompileResult &Res) const;

  CompileOptions Opts;
  const kernels::KernelRegistry *Registry = nullptr;
};

/// Renders a CompileResult as one machine-readable JSON record (the
/// `porcc compile --json` payload): kernel, program text, instruction mix,
/// depths, cost, synthesis stats, parameters, SEAL code, and notes.
std::string toJson(const CompileResult &R);

} // namespace driver
} // namespace porcupine

#endif // PORCUPINE_DRIVER_DRIVER_H
