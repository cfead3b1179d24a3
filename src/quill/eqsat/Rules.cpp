//===- quill/eqsat/Rules.cpp - Saturation rewrite rules -------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/eqsat/Rules.h"

#include "math/ModArith.h"

#include <utility>
#include <vector>

using namespace porcupine;
using namespace porcupine::quill;
using namespace porcupine::quill::eqsat;

namespace {

/// Largest splat multiplier the strength-reduction rule unfolds into an
/// addition chain. Beyond this the chain's latency exceeds any plausible
/// depth saving and the node count would grow for nothing.
constexpr uint64_t MaxStrengthReduceFactor = 16;

/// mulpt(A, k) with the trivial k == 1 collapsed to A itself.
int mulBySplat(EGraph &G, int A, uint64_t K) {
  if (K == 1)
    return G.find(A);
  PlainConstant C;
  C.Values = {static_cast<int64_t>(K)};
  return G.addCtPt(Opcode::MulCtPt, A, G.internConstant(C));
}

int addSplatConst(EGraph &G, Opcode Op, int A, uint64_t K) {
  PlainConstant C;
  C.Values = {static_cast<int64_t>(K)};
  return G.addCtPt(Op, A, G.internConstant(C));
}

} // namespace

int porcupine::quill::eqsat::runRuleIteration(EGraph &G, size_t MaxNodes) {
  G.rebuild();
  const uint64_t T = G.modulus();
  const int W = static_cast<int>(G.width());

  // Match against a snapshot: rule applications allocate nodes and merge
  // classes mid-scan, but only the pre-iteration terms are pattern
  // sources, so one call is one well-defined parallel rewrite step.
  std::vector<std::pair<int, std::vector<ENode>>> Snap;
  for (int C : G.classIds())
    Snap.emplace_back(C, G.nodes(C));

  int Applications = 0;
  // The node cap binds mid-sweep (see Rules.h): once the graph exceeds
  // it, the scan stops at the next match boundary rather than finishing
  // the snapshot — deterministic, since node count is clock-free. Strict
  // ">" mirrors saturate()'s between-sweep check, so a truncated sweep
  // always grew the graph and thus counted >= 1 application — a sweep
  // reporting 0 really is a fixpoint.
  auto overCap = [&] { return MaxNodes != 0 && G.numNodes() > MaxNodes; };
  // One rule application: build the RHS term, assert LHS == RHS. Counts
  // only applications that changed the graph (new node or real merge).
  auto apply = [&](int LhsClass, int RhsClass) {
    uint64_t V0 = G.version();
    bool Merged = G.merge(LhsClass, RhsClass);
    if (Merged || G.version() != V0)
      ++Applications;
  };

  for (const auto &Entry : Snap) {
    if (overCap())
      break;
    const int C = Entry.first;
    for (const ENode &N : Entry.second) {
      if (overCap())
        break;
      if (N.isInput())
        continue;
      const Opcode Op = N.op();

      // Child node lists are *copies*, not references: rule applications
      // merge classes mid-scan, which splices node vectors and would
      // invalidate live references into them.
      const std::vector<ENode> ANodes = G.nodes(N.A);
      const std::vector<ENode> BNodes =
          isCtCt(Op) ? G.nodes(N.B) : std::vector<ENode>();

      // --- Rotation rules -------------------------------------------------
      if (Op == Opcode::RotCt) {
        const int K = N.Payload;
        for (const ENode &M : ANodes) {
          if (overCap())
            break;
          if (M.isInput())
            continue;
          if (M.op() == Opcode::RotCt) {
            // rot(rot(x,a),b) == rot(x,a+b), except when a+b is a nonzero
            // multiple of W: Program::validate rejects that rotation, and
            // it is not the identity on a ciphertext row.
            const int Sum = K + M.Payload;
            if (Sum == 0 || Sum % W != 0)
              apply(C, G.addRot(M.A, Sum));
          } else if (isCtCt(M.op())) {
            // rot distributes over ct-ct add/sub/mul...
            apply(C, G.addCtCt(M.op(), G.addRot(M.A, K), G.addRot(M.B, K)));
          } else if (isCtPt(M.op()) && G.splatOf(M.Payload)) {
            // ...and over ct-pt ops with splat constants (a splat is
            // rotation-invariant; a full vector is not).
            apply(C, G.addCtPt(M.op(), G.addRot(M.A, K), M.Payload));
          }
        }
        continue;
      }

      if (isCtCt(Op)) {
        // --- Associativity (commutativity is free: operands sorted) ------
        if (isCommutative(Op)) {
          for (const ENode &M : ANodes) {
            if (overCap())
              break;
            if (!M.isInput() && M.op() == Op)
              apply(C, G.addCtCt(Op, M.A, G.addCtCt(Op, M.B, N.B)));
          }
          for (const ENode &M : BNodes) {
            if (overCap())
              break;
            if (!M.isInput() && M.op() == Op)
              apply(C, G.addCtCt(Op, G.addCtCt(Op, N.A, M.A), M.B));
          }
        }

        // --- Rotation factoring: op(rot(x,k), rot(y,k)) == rot(op(x,y),k)
        // — rot-dedup's hoist as an equality, with no single-use gate.
        for (const ENode &Ma : ANodes) {
          if (overCap())
            break;
          if (Ma.isInput() || Ma.op() != Opcode::RotCt)
            continue;
          for (const ENode &Mb : BNodes) {
            if (Mb.isInput() || Mb.op() != Opcode::RotCt ||
                Mb.Payload != Ma.Payload)
              continue;
            apply(C, G.addRot(G.addCtCt(Op, Ma.A, Mb.A), Ma.Payload));
          }
        }

        if (Op == Opcode::AddCtCt || Op == Opcode::SubCtCt) {
          // --- mulpt factoring: mulpt(x,c) op mulpt(y,c) == mulpt(x op y, c)
          // (exact slot-wise for any constant shape).
          for (const ENode &Ma : ANodes) {
            if (overCap())
              break;
            if (Ma.isInput() || Ma.op() != Opcode::MulCtPt)
              continue;
            for (const ENode &Mb : BNodes) {
              if (Mb.isInput() || Mb.op() != Opcode::MulCtPt ||
                  Mb.Payload != Ma.Payload)
                continue;
              apply(C, G.addCtPt(Opcode::MulCtPt,
                                 G.addCtCt(Op, Ma.A, Mb.A), Ma.Payload));
            }
          }
          // --- ct-ct factoring (the distributive law, contraction
          // direction only — expansion adds multiplies and would only
          // bloat the graph): mul(s,p) op mul(s,q) == mul(s, p op q).
          for (const ENode &Ma : ANodes) {
            if (overCap())
              break;
            if (Ma.isInput() || Ma.op() != Opcode::MulCtCt)
              continue;
            for (const ENode &Mb : BNodes) {
              if (Mb.isInput() || Mb.op() != Opcode::MulCtCt)
                continue;
              const int AX = G.find(Ma.A), AY = G.find(Ma.B);
              const int BX = G.find(Mb.A), BY = G.find(Mb.B);
              if (AX == BX)
                apply(C, G.addCtCt(Opcode::MulCtCt, AX,
                                   G.addCtCt(Op, AY, BY)));
              if (AX == BY)
                apply(C, G.addCtCt(Opcode::MulCtCt, AX,
                                   G.addCtCt(Op, AY, BX)));
              if (AY == BX)
                apply(C, G.addCtCt(Opcode::MulCtCt, AY,
                                   G.addCtCt(Op, AX, BY)));
              if (AY == BY)
                apply(C, G.addCtCt(Opcode::MulCtCt, AY,
                                   G.addCtCt(Op, AX, BX)));
            }
          }
        }
        continue;
      }

      // --- Ct-pt rules ----------------------------------------------------
      if (isCtPt(Op)) {
        const std::optional<uint64_t> Splat = G.splatOf(N.Payload);

        // sub-pt normalizes onto add-pt: x - c == x + (-c mod t).
        if (Op == Opcode::SubCtPt && Splat) {
          apply(C, addSplatConst(G, Opcode::AddCtPt, N.A, negMod(*Splat, T)));
          continue; // Everything below reaches it through the add-pt form.
        }

        // Identities mod t.
        if (Splat) {
          if (Op == Opcode::AddCtPt && *Splat == 0)
            apply(C, N.A);
          if (Op == Opcode::MulCtPt && *Splat == 1)
            apply(C, N.A);
          if (Op == Opcode::MulCtPt && *Splat == 0)
            apply(C, G.addCtCt(Opcode::SubCtCt, N.A, N.A));
        }

        // Splat constant chains fold mod t.
        if (Splat && (Op == Opcode::AddCtPt || Op == Opcode::MulCtPt)) {
          for (const ENode &M : ANodes) {
            if (overCap())
              break;
            if (M.isInput() || M.op() != Op)
              continue;
            const std::optional<uint64_t> Inner = G.splatOf(M.Payload);
            if (!Inner)
              continue;
            const uint64_t Folded = Op == Opcode::AddCtPt
                                        ? addMod(*Splat, *Inner, T)
                                        : mulMod(*Splat, *Inner, T);
            apply(C, addSplatConst(G, Op, M.A, Folded));
          }
        }

        // Strength reduction: mulpt by a small splat k is an addition
        // chain (double, plus one increment when odd). Besides the
        // latency trade, the chain has no multiply — extraction can use
        // it to peel a whole (1 + mdepth) level off the paper cost.
        if (Op == Opcode::MulCtPt && Splat && *Splat >= 2 &&
            *Splat <= MaxStrengthReduceFactor) {
          const uint64_t K = *Splat;
          if (K % 2 == 0) {
            int Half = mulBySplat(G, N.A, K / 2);
            apply(C, G.addCtCt(Opcode::AddCtCt, Half, Half));
          } else {
            int Most = mulBySplat(G, N.A, K - 1);
            apply(C, G.addCtCt(Opcode::AddCtCt, Most, N.A));
          }
        }

        // mulpt distributes over ct-ct add/sub (exact for any constant
        // shape); the factoring direction is handled above from the
        // add/sub side.
        if (Op == Opcode::MulCtPt) {
          for (const ENode &M : ANodes) {
            if (overCap())
              break;
            if (M.isInput())
              continue;
            if (M.op() == Opcode::AddCtCt || M.op() == Opcode::SubCtCt)
              apply(C, G.addCtCt(M.op(),
                                 G.addCtPt(Opcode::MulCtPt, M.A, N.Payload),
                                 G.addCtPt(Opcode::MulCtPt, M.B, N.Payload)));
          }
        }
        continue;
      }
    }
  }

  G.rebuild();
  return Applications;
}
