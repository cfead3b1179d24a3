//===- quill/eqsat/Saturate.h - Budgeted saturation + the pass --*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The saturation driver and the `eqsat` quill::Pass built on it:
///
///   buildEGraph()  interns a Quill program bottom-up (Relin instructions
///                  collapse into their operand's class — relinearization
///                  is the identity on plaintexts and is re-placed after
///                  extraction);
///   saturate()     runs rule sweeps (Rules.h) until a fixpoint or an
///                  iteration/node/time budget trips, reporting which;
///   createEqSatPass() the Pass the registry hands out for "eqsat": build,
///                  saturate, extract twice (implicit pricing and an
///                  optimistic all-relins-elided pricing) both before the
///                  first sweep and after the last, re-place relins via
///                  the lazy-relin pass, score the candidates with
///                  quill::CostModel, and commit the winner only when it is
///                  strictly cheaper than the input under quill::CostModel
///                  — so the PassManager's cost-monotonicity guard can
///                  never fire on it, and a rerun on its own output is a
///                  no-op whenever saturation completed.
///
/// Determinism: with EqSatBudgets::TimeBudgetMs <= 0 (the default) every
/// stage is clock-free and container-ordered, so the extracted program is
/// byte-identical across runs, hosts, and thread counts; any two budget
/// settings that both reach saturation extract the same program.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_EQSAT_SATURATE_H
#define PORCUPINE_QUILL_EQSAT_SATURATE_H

#include "quill/Passes.h"
#include "quill/eqsat/EGraph.h"

#include <memory>

namespace porcupine {
namespace quill {
namespace eqsat {

/// What one saturation run did (surfaced through PassRunStats into
/// `porcc opt --json` and the bench snapshot's "optimizer" section).
struct SaturationStats {
  /// Rule sweeps actually run.
  int Iterations = 0;
  /// Live e-classes / e-nodes after the final rebuild.
  size_t EClasses = 0;
  size_t ENodes = 0;
  /// Total rule applications that changed the graph.
  int Applications = 0;
  /// True when the last sweep was a fixpoint (the graph is saturated);
  /// false when a budget stopped the loop first.
  bool Saturated = false;
};

/// A program interned into an e-graph, plus the class of its output.
struct BuiltGraph {
  EGraph Graph;
  int Root = -1;
};

/// Interns \p P bottom-up. Relin instructions map to their operand's
/// class; constants are re-interned as residues mod \p P's modulus (taken
/// from \p Modulus).
BuiltGraph buildEGraph(const Program &P, uint64_t Modulus);

/// Runs rule sweeps over \p G under \p Budgets until fixpoint or budget.
SaturationStats saturate(EGraph &G, const EqSatBudgets &Budgets);

/// The registry factory behind createPass("eqsat").
std::unique_ptr<Pass> createEqSatPass();

} // namespace eqsat
} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_EQSAT_SATURATE_H
