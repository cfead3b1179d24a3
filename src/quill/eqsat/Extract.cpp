//===- quill/eqsat/Extract.cpp - Cost-model extraction --------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/eqsat/Extract.h"

#include "quill/Analysis.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

using namespace porcupine;
using namespace porcupine::quill;
using namespace porcupine::quill::eqsat;

namespace {

/// The running best candidate of one e-class.
struct Best {
  bool Found = false;
  double Lat = 0.0;
  int Depth = 0; // Multiplicative depth of the subtree.
  ENode Node;

  double cost() const { return Lat * (1.0 + Depth); }
};

/// Strict deterministic "cheaper than" over candidates: paper cost, then
/// latency, then depth, then ENode order. The epsilon keeps floating-point
/// noise from flapping equal-cost candidates between runs.
bool cheaper(double Cost, double Lat, int Depth, const ENode &N,
             const Best &Cur) {
  constexpr double Eps = 1e-9;
  double CurCost = Cur.cost();
  if (Cost < CurCost - Eps)
    return true;
  if (Cost > CurCost + Eps)
    return false;
  if (Lat < Cur.Lat - Eps)
    return true;
  if (Lat > Cur.Lat + Eps)
    return false;
  if (Depth != Cur.Depth)
    return Depth < Cur.Depth;
  return N < Cur.Node;
}

} // namespace

ExtractionResult eqsat::extract(const EGraph &G, int Root, int NumInputs,
                                const LatencyTable &Latency) {
  ExtractionResult Res;
  Root = G.find(Root);

  const std::vector<int> Classes = G.classIds();
  // Indexed by canonical class id; ids ascend, so the last bounds them.
  std::vector<Best> BestOf(Classes.back() + 1);

  // Bottom-up relaxation. The pass cap is the cycle guard: any chain of
  // genuine improvements is bounded by the class count (costs are
  // strictly monotone in the children — every opcode has positive
  // latency), so iterating past it could only be chasing a cycle.
  const size_t MaxPasses = Classes.size() + 2;
  bool Changed = true;
  for (size_t Pass = 0; Changed && Pass < MaxPasses; ++Pass) {
    Changed = false;
    for (int C : Classes) {
      Best &Cur = BestOf[C];
      for (const ENode &N : G.nodes(C)) {
        double Lat = 0.0;
        int Depth = 0;
        if (!N.isInput()) {
          const Best &A = BestOf[G.find(N.A)];
          if (!A.Found)
            continue;
          Lat = Latency.latencyOf(N.op()) + A.Lat;
          Depth = A.Depth;
          if (isCtCt(N.op())) {
            const Best &B = BestOf[G.find(N.B)];
            if (!B.Found)
              continue;
            Lat += B.Lat;
            Depth = std::max(Depth, B.Depth);
          }
          if (isMultiply(N.op()))
            ++Depth;
        }
        double Cost = Lat * (1.0 + Depth);
        if (!Cur.Found || cheaper(Cost, Lat, Depth, N, Cur)) {
          Cur.Found = true;
          Cur.Lat = Lat;
          Cur.Depth = Depth;
          Cur.Node = N;
          Changed = true;
        }
      }
    }
  }

  const Best &RootBest = BestOf[Root];
  if (!RootBest.Found)
    return Res; // No finite-cost term: Valid stays false.

  // Emit the chosen term bottom-up, one value per class (memoized, so
  // sharing in the choice graph becomes SSA sharing in the program). The
  // InProgress set is the emission cycle guard; it cannot trip when the
  // relaxation converged, but a budget-stopped fixpoint deserves a clean
  // failure instead of infinite recursion.
  Program P;
  P.NumInputs = NumInputs;
  P.VectorSize = G.width();
  std::map<int, int> ValueOf;   // class -> program value id
  std::map<int, int> ConstMap;  // graph const idx -> program const idx
  std::set<int> InProgress;
  bool Cyclic = false;

  std::function<int(int)> Emit = [&](int C) -> int {
    C = G.find(C);
    auto It = ValueOf.find(C);
    if (It != ValueOf.end())
      return It->second;
    if (Cyclic || !InProgress.insert(C).second) {
      Cyclic = true;
      return 0;
    }
    const ENode &N = BestOf[C].Node;
    int Id;
    if (N.isInput()) {
      Id = N.Payload;
    } else if (N.op() == Opcode::RotCt) {
      Id = P.append(Instr::rot(Emit(N.A), N.Payload));
    } else if (isCtCt(N.op())) {
      int A = Emit(N.A);
      int B = Emit(N.B);
      Id = P.append(Instr::ctCt(N.op(), A, B));
    } else {
      int A = Emit(N.A);
      auto CIt = ConstMap.find(N.Payload);
      if (CIt == ConstMap.end())
        CIt = ConstMap
                  .emplace(N.Payload, P.internConstant(G.constant(N.Payload)))
                  .first;
      Id = P.append(Instr::ctPt(N.op(), A, CIt->second));
    }
    InProgress.erase(C);
    ValueOf.emplace(C, Id);
    return Id;
  };

  P.Output = Emit(Root);
  if (Cyclic)
    return Res;
  Res.Prog = std::move(P);
  Res.Valid = true;
  return Res;
}

double eqsat::relinAwareCost(const Program &P, const LatencyTable &Latency) {
  CostModel Cost(Latency);
  if (P.ExplicitRelin)
    return Cost.cost(P); // Relins already placed and priced.

  // Which raw products must be relinearized? Exactly those whose result
  // reaches — through the degree-preserving add/sub/ct-pt ops — an
  // operand of a rotation or another multiply (both demand two-component
  // ciphertexts). One reverse sweep computes the demand: consumers appear
  // after definitions in SSA order, so by the time instruction k is
  // visited every demand on its value is final.
  std::vector<bool> Demand2(P.numValues(), false);
  int Relins = 0;
  double Lat = 0.0;
  for (int K = static_cast<int>(P.Instructions.size()) - 1; K >= 0; --K) {
    const Instr &I = P.Instructions[K];
    const int V = P.NumInputs + K;
    switch (I.Op) {
    case Opcode::MulCtCt:
      if (Demand2[V])
        ++Relins;
      Demand2[I.Src0] = true;
      Demand2[I.Src1] = true;
      Lat += Latency.mulCtCtRaw();
      break;
    case Opcode::RotCt:
      Demand2[I.Src0] = true;
      Lat += Latency.latencyOf(I.Op);
      break;
    case Opcode::AddCtCt:
    case Opcode::SubCtCt:
      if (Demand2[V]) {
        Demand2[I.Src0] = true;
        Demand2[I.Src1] = true;
      }
      Lat += Latency.latencyOf(I.Op);
      break;
    default: // ct-pt ops (Relin cannot appear in implicit programs).
      if (Demand2[V])
        Demand2[I.Src0] = true;
      Lat += Latency.latencyOf(I.Op);
      break;
    }
  }
  Lat += Relins * Latency.RelinCt;
  return Lat * (1.0 + programMultiplicativeDepth(P));
}
