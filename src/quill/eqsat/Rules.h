//===- quill/eqsat/Rules.h - Saturation rewrite rules -----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rewrite axioms the eqsat pass saturates with — the classical
/// pipeline's rules (Passes.h) recast as *equalities* added to an e-graph
/// instead of greedy ordered replacements, so every rewrite ordering is
/// explored at once and extraction picks the cheapest representative:
///
///   rotation    rot(rot(x,a),b) == rot(x,a+b) unless a+b is a nonzero
///               multiple of the width W; rot(x,0) == x (by
///               construction); rotation distributes over ct-ct
///               add/sub/mul and over ct-pt ops with splat constants, in
///               both directions (the factoring direction generalizes
///               rot-dedup's hoist — no single-use gate).
///   assoc/comm  add and mul-ct-ct reassociate; commutativity is free
///               (operands stored sorted).
///   constants   splat ct-pt chains fold mod t (a+b, a*b), sub-pt
///               normalizes to add-pt of the negated residue, and the
///               identities x+0 == x, x*1 == x, x*0 == x-x fold.
///   strength    mul-pt by a small splat k (2 <= k <= 16) equals an
///               addition chain (doubling + one increment), which both
///               shaves latency and — the global win greedy rewriting
///               cannot see — removes a multiplicative-depth level from
///               the paper cost's (1 + mdepth) factor.
///   factoring   mulpt(x,c) + mulpt(y,c) == mulpt(x+y, c) (both
///               directions, any c) and the ct-ct distributive law in the
///               factoring direction: mul(x,y) op mul(x,z) == mul(x, y op z)
///               for op in {add, sub}.
///   CSE         free: the hashcons dedups congruent terms.
///
/// Relinearization never appears in the graph: Relin is semantically the
/// identity on plaintexts, so explicit-relin programs are interned with
/// Relin nodes collapsed into their operand's class, and the relin
/// placement cost is accounted at extraction time (Extract.h).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_EQSAT_RULES_H
#define PORCUPINE_QUILL_EQSAT_RULES_H

#include "quill/eqsat/EGraph.h"

namespace porcupine {
namespace quill {
namespace eqsat {

/// One saturation sweep: matches every rule against a snapshot of the
/// (rebuilt) graph, adds the right-hand sides, merges, and rebuilds.
/// Returns the number of rule applications that structurally changed the
/// graph (0 means the graph is saturated). Deterministic: the snapshot is
/// scanned in ascending class-id / sorted-node order.
///
/// \p MaxNodes (0 = unbounded) caps live e-nodes *within* the sweep: the
/// scan stops as soon as the graph reaches the cap. Wide programs with
/// many distinct rotations can grow the graph combinatorially inside one
/// sweep — far past any between-sweep check — so the budget must bind
/// mid-sweep to bound work at all. A node-count cut is a pure function of
/// the input graph, so determinism is unaffected (unlike a clock).
int runRuleIteration(EGraph &G, size_t MaxNodes = 0);

} // namespace eqsat
} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_EQSAT_RULES_H
