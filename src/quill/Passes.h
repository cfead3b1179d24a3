//===- quill/Passes.h - Optimizer pass pipeline -----------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// quill::PassManager: a named, ordered, composable rewrite pipeline over
/// Quill programs, in the shape HECO structures its IR passes. Every pass
/// is a semantics-preserving rewrite; the manager re-runs the Interpreter
/// on caller-supplied examples after each pass (any mismatch is reported as
/// a hard error — it means a compiler bug, not bad input) and reverts any
/// pass whose rewrite increases CostModel cost, so a pipeline can never
/// make a program worse under the paper's cost function.
///
/// Shipped passes (pipeline-string names). peephole, cse, constfold and
/// rot-dedup are one greedy rewriter: a walk that rebuilds the program
/// front to back, tries each instruction against the pass's rules in
/// order, repeats until no rule fires, then drops dead code. Each of the
/// four names is just its list of rules:
///
///   peephole   The local rules of earlier HE compilers, kept as the
///              ablation baseline (bench_ablation_rewrite): share
///              rotations, rotate-by-0, fuse rotations, identities (x+0,
///              x-0, x*1, x*0 -> sub(x,x)), and x*2 -> x+x when an
///              addition is cheaper than a ct-pt multiply.
///   cse        Share any identical instruction (value numbering,
///              commutative operands normalized).
///   constfold  Identities, splat constant chains folded mod t,
///              rotate-by-0, fuse rotations.
///   lazy-relin EVA-style lazy relinearization: converts to explicit-relin
///              form (Program::ExplicitRelin), sinking each mul-ct-ct's
///              relinearization to the first consumer that needs a
///              two-component ciphertext, sharing it between consumers,
///              and eliding it entirely when no rotation or multiply (or
///              anything besides add/sub/ct-pt ops and the output)
///              consumes the product. It decides on the input with its
///              dead code dropped and duplicates shared (a cse'd copy), and
///              the rebuilt program it commits has that form too.
///   rot-dedup  Share any identical instruction, hoist op(rot(x,a),
///              rot(y,a)) into rot(op(x,y), a) when both rotations die
///              with the op, and fuse rotations, so a hoisted op reuses an
///              equal one and a hoisted rotation fuses with a rotating
///              consumer. Shrinks both the instruction stream and the
///              Galois key set requiredRotations() reports.
///   eqsat      Equality-saturation superoptimizer (src/quill/eqsat/): the
///              rewrite axioms as an e-graph saturation instead of greedy
///              ordered rewrites, with its own rule table, extracted by
///              CostModel with a relin-aware scoring term. Budgeted via
///              PassContext::EqSat; commits only strict cost improvements.
///              Not in the default pipeline — opt in with "...,eqsat".
///
/// Every pass is width-exact: no rewrite reduces a rotation amount or a
/// rotation key mod the program width, and a fused rotation whose amount
/// is a nonzero multiple of the width is left alone. An optimized program
/// therefore computes the same whole ciphertext row as its input, not
/// only the same first VectorSize slots.
///
/// All passes are deterministic. The greedy passes run to a fixed point,
/// so a second run returns 0 rewrites; so does the default pipeline, which
/// runs rot-dedup before lazy-relin for that reason. eqsat is idempotent
/// only where its budgets let saturation reach a fixpoint: the defaults
/// saturate 7 of the 13 bundled kernels, and the three `.porc` workloads
/// stop on the node cap, so a rerun there may find more.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_PASSES_H
#define PORCUPINE_QUILL_PASSES_H

#include "quill/CostModel.h"
#include "quill/Interpreter.h"
#include "quill/Program.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace porcupine {
namespace quill {

/// Budgets bounding the `eqsat` pass's saturation loop (src/quill/eqsat/).
/// Defined here rather than in the eqsat headers so PassContext and
/// driver::CompileOptions can carry them without a layering cycle. The
/// defaults saturate seven of the thirteen bundled kernels. Variance and
/// the three `.porc` workloads stop on the node cap, Dot Product and L2
/// Distance on the iteration cap.
///
/// An iteration or node budget <= 0 stops saturation before its first
/// sweep. The pass still extracts from the program's own e-graph, where
/// duplicate terms already share one class, so it may commit a cheaper
/// program.
struct EqSatBudgets {
  /// Maximum saturation iterations (full rule sweeps); <= 0 runs none.
  int MaxIterations = 8;
  /// Stop once the e-graph holds more than this many live e-nodes;
  /// <= 0 runs no sweep. Enforced both between sweeps and *inside* a
  /// sweep (wide programs with many distinct rotations can blow past any
  /// between-sweep check within one sweep), so it bounds work as well as
  /// memory. 40000 is the smallest power-of-two-ish budget at which the
  /// variance kernel still discovers its strength-reduction mult-depth
  /// win.
  int MaxNodes = 40000;
  /// Wall-clock budget in milliseconds, checked between iterations.
  /// <= 0 (the default) disables the clock entirely: saturation is then
  /// bounded by iterations/nodes only and the extracted program is
  /// byte-identical across runs, hosts, and thread counts. Accordingly
  /// CompileOptions::canonicalKey() fingerprints this field only when it
  /// is armed (> 0) — the same rule that keeps Synthesis.Threads out of
  /// compile-cache keys.
  double TimeBudgetMs = 0.0;
};

/// Everything a pass may consult besides the program itself.
struct PassContext {
  /// Prices rewrite decisions (e.g. strength reduction) and the manager's
  /// cost-monotonicity guard.
  LatencyTable Latency;
  /// Plaintext modulus for constant folding and example verification.
  uint64_t PlainModulus = 65537;
  /// Saturation budgets for the `eqsat` pass (ignored by the others).
  EqSatBudgets EqSat;
};

struct PassRunStats;

/// One rewrite pass. Implementations must be deterministic, idempotent,
/// and semantics-preserving under the Interpreter.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  /// Rewrites \p P in place; returns the number of rule applications
  /// (0 means \p P was left untouched).
  virtual int run(Program &P, const PassContext &Ctx) = 0;
  /// Called by the manager right after run() so a pass can surface
  /// pass-specific statistics (the eqsat pass reports its saturation
  /// state here — even when it commits nothing). Default: no extra stats.
  virtual void annotateStats(PassRunStats &S) const { (void)S; }
};

/// The default pipeline string driver::CompileOptions ships with.
const char *defaultPipeline();

/// Names createPass() accepts, in default-pipeline order.
std::vector<std::string> knownPassNames();

/// Instantiates a pass by pipeline-string name; nullptr if unknown.
std::unique_ptr<Pass> createPass(const std::string &Name);

/// What one pass did to the program.
struct PassRunStats {
  std::string Pass;
  /// Rule applications the pass reported (0 = program untouched).
  int Rewrites = 0;
  /// Net instruction-count delta (negative when a pass adds instructions,
  /// e.g. lazy-relin materializing an explicit relin it could not elide).
  int InstructionsRemoved = 0;
  /// Net rotation-count delta.
  int RotationsEliminated = 0;
  /// Net relinearization delta: implicit programs relinearize once per
  /// mul-ct-ct, explicit programs once per Relin instruction.
  int RelinsDeferred = 0;
  /// CostModel cost around the pass (CostAfter == CostBefore when nothing
  /// changed or the change was reverted).
  double CostBefore = 0.0;
  double CostAfter = 0.0;
  /// True when the rewrite increased cost and the manager restored the
  /// pre-pass program (RejectedCost holds the increase for diagnostics).
  bool Reverted = false;
  double RejectedCost = 0.0;
  /// Saturation statistics, filled via Pass::annotateStats() by the eqsat
  /// pass only (HasEqSat marks presence; all zero for the classical
  /// passes). Reported even when the pass commits no rewrite, so tooling
  /// can tell "saturated, nothing cheaper" from "budget-stopped".
  bool HasEqSat = false;
  int EqSatIterations = 0;
  int EqSatClasses = 0;
  int EqSatNodes = 0;
  /// True when the rule set reached a fixpoint within the budgets; false
  /// when an iteration/node/time budget stopped saturation early.
  bool EqSatSaturated = false;
};

/// Per-pass statistics for one pipeline run.
struct PipelineStats {
  std::vector<PassRunStats> Passes;

  int totalRewrites() const {
    int N = 0;
    for (const PassRunStats &S : Passes)
      N += S.Reverted ? 0 : S.Rewrites;
    return N;
  }
  double costBefore() const {
    return Passes.empty() ? 0.0 : Passes.front().CostBefore;
  }
  double costAfter() const {
    return Passes.empty() ? 0.0 : Passes.back().CostAfter;
  }
};

/// PassManager configuration.
struct PassManagerOptions {
  PassContext Context;
  /// Verification inputs: each entry is one full input set (NumInputs
  /// vectors of the program's VectorSize). After every pass the manager
  /// re-interprets the program on each example and fails the run on any
  /// output mismatch. Empty disables verification.
  std::vector<std::vector<SlotVector>> Examples;
};

/// An ordered pass pipeline. Movable, not copyable (owns the passes).
class PassManager {
public:
  explicit PassManager(PassManagerOptions Opts) : Opts(std::move(Opts)) {}
  PassManager(PassManager &&) = default;
  PassManager &operator=(PassManager &&) = default;

  /// Builds a manager from a comma-separated pipeline string, e.g.
  /// "peephole,cse,constfold,rot-dedup,lazy-relin" (defaultPipeline()).
  /// An empty string is a valid empty pipeline; unknown or empty segment
  /// names are errors.
  static Expected<PassManager> fromPipeline(const std::string &Pipeline,
                                            PassManagerOptions Opts);

  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  size_t size() const { return Passes.size(); }

  const PassManagerOptions &options() const { return Opts; }

  /// Runs the pipeline over \p P in place. Fails (leaving \p P in its last
  /// verified state) if a pass emits an invalid program or changes the
  /// program's behavior on any verification example.
  Expected<PipelineStats> run(Program &P);

private:
  PassManagerOptions Opts;
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_PASSES_H
