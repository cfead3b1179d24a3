//===- quill/eqsat/Saturate.cpp - Budgeted saturation + the pass ----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/eqsat/Saturate.h"

#include "quill/eqsat/Extract.h"
#include "quill/eqsat/Rules.h"
#include "support/Timing.h"

#include <algorithm>
#include <limits>
#include <utility>

using namespace porcupine;
using namespace porcupine::quill;
using namespace porcupine::quill::eqsat;

BuiltGraph eqsat::buildEGraph(const Program &P, uint64_t Modulus) {
  BuiltGraph BG{EGraph(P.VectorSize, Modulus), -1};
  std::vector<int> ClassOf(P.numValues(), -1);
  for (int I = 0; I < P.NumInputs; ++I)
    ClassOf[I] = BG.Graph.addInput(I);
  for (size_t K = 0; K < P.Instructions.size(); ++K) {
    const Instr &I = P.Instructions[K];
    const int V = P.NumInputs + static_cast<int>(K);
    if (I.Op == Opcode::Relin)
      // Relinearization is the identity on plaintexts: collapse it into
      // the operand's class. Extraction emits implicit-relin programs and
      // relins are re-placed afterwards (see the pass below).
      ClassOf[V] = ClassOf[I.Src0];
    else if (I.Op == Opcode::RotCt)
      ClassOf[V] = BG.Graph.addRot(ClassOf[I.Src0], I.Rot);
    else if (isCtCt(I.Op))
      ClassOf[V] = BG.Graph.addCtCt(I.Op, ClassOf[I.Src0], ClassOf[I.Src1]);
    else
      ClassOf[V] = BG.Graph.addCtPt(
          I.Op, ClassOf[I.Src0],
          BG.Graph.internConstant(P.Constants[I.PtIdx]));
  }
  BG.Graph.rebuild();
  BG.Root = BG.Graph.find(ClassOf[P.outputId()]);
  return BG;
}

SaturationStats eqsat::saturate(EGraph &G, const EqSatBudgets &Budgets) {
  SaturationStats S;
  G.rebuild();
  Stopwatch Clock;
  const size_t NodeBudget =
      static_cast<size_t>(std::max(0, Budgets.MaxNodes));
  for (int It = 0; It < Budgets.MaxIterations; ++It) {
    // The node budget binds both here and *inside* the sweep (Rules.h):
    // one sweep over a wide program can grow the graph combinatorially,
    // so a between-sweep check alone bounds nothing. Node-count cuts are
    // clock-free, so the trajectory stays a pure function of the input
    // graph; only the wall-clock budget is restricted to sweep borders.
    if (G.numNodes() > NodeBudget)
      break;
    if (Budgets.TimeBudgetMs > 0.0 &&
        Clock.seconds() * 1000.0 > Budgets.TimeBudgetMs)
      break;
    int Apps = runRuleIteration(G, NodeBudget);
    ++S.Iterations;
    S.Applications += Apps;
    if (Apps == 0) {
      S.Saturated = true; // A zero-application sweep IS the fixpoint.
      break;
    }
  }
  S.EClasses = G.numClasses();
  S.ENodes = G.numNodes();
  return S;
}

namespace {

/// An extracted program and its quill::CostModel cost (+inf: none).
struct Candidate {
  Program Prog;
  double Cost = std::numeric_limits<double>::infinity();
};

/// The cheapest program extractable from \p BG as it stands.
Candidate cheapestExtraction(const BuiltGraph &BG, int NumInputs,
                             const PassContext &Ctx) {
  // Extract twice: once under the implicit pricing (every mul pays its
  // relin) and once optimistically (every relin elided — muls priced
  // raw). The two tables bracket what lazy relinearization can achieve;
  // scoring both candidates relin-aware picks the right bracket end.
  LatencyTable Optimistic = Ctx.Latency;
  Optimistic.MulCtCt = Ctx.Latency.mulCtCtRaw();

  CostModel Cost(Ctx.Latency);
  Candidate Best;
  for (const LatencyTable &Table : {Ctx.Latency, Optimistic}) {
    ExtractionResult Ex = extract(BG.Graph, BG.Root, NumInputs, Table);
    if (!Ex.Valid)
      continue;
    Program Q = std::move(Ex.Prog);
    // Re-place relinearizations on the implicit extraction; lazy-relin
    // has its own commit guards and leaves Q implicit when that is
    // cheaper or when there is nothing to defer.
    if (std::unique_ptr<Pass> LazyRelin = createPass("lazy-relin"))
      LazyRelin->run(Q, Ctx);
    double C = Cost.cost(Q);
    if (C < Best.Cost - 1e-9) {
      Best.Prog = std::move(Q);
      Best.Cost = C;
    }
  }
  return Best;
}

/// The `eqsat` pass: saturate, extract, re-place relins, and commit only
/// strict cost-model improvements. See Saturate.h for the contract.
class EqSatPass : public Pass {
public:
  const char *name() const override { return "eqsat"; }

  int run(Program &P, const PassContext &Ctx) override {
    Last = SaturationStats();
    if (P.Instructions.empty())
      return 0;

    BuiltGraph BG = buildEGraph(P, Ctx.PlainModulus);
    // Extraction is greedy per class, so a graph grown by sweeps can
    // extract a program dearer than the unsaturated graph's (which is the
    // input with hashcons CSE applied). Keep that candidate too; the
    // saturated graph's wins ties.
    Candidate Unsaturated = cheapestExtraction(BG, P.NumInputs, Ctx);
    Last = saturate(BG.Graph, Ctx.EqSat);
    Candidate Best = cheapestExtraction(BG, P.NumInputs, Ctx);
    if (Unsaturated.Cost < Best.Cost - 1e-9)
      Best = std::move(Unsaturated);

    // Commit only a strict improvement over the input's true cost: the
    // manager's cost guard can then never fire on eqsat, and rerunning on
    // the committed output extracts the same program again (equal cost)
    // and reports 0 — idempotence, whenever saturation completed.
    if (Best.Cost >= CostModel(Ctx.Latency).cost(P) - 1e-9)
      return 0;
    P = std::move(Best.Prog);
    return std::max(1, Last.Applications);
  }

  void annotateStats(PassRunStats &S) const override {
    S.HasEqSat = true;
    S.EqSatIterations = Last.Iterations;
    S.EqSatClasses = static_cast<int>(Last.EClasses);
    S.EqSatNodes = static_cast<int>(Last.ENodes);
    S.EqSatSaturated = Last.Saturated;
  }

private:
  SaturationStats Last;
};

} // namespace

std::unique_ptr<Pass> eqsat::createEqSatPass() {
  return std::make_unique<EqSatPass>();
}
