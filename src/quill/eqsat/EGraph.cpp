//===- quill/eqsat/EGraph.cpp - E-graph over Quill IR ---------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/eqsat/EGraph.h"

#include "math/ModArith.h"

#include <algorithm>
#include <cassert>

using namespace porcupine;
using namespace porcupine::quill;
using namespace porcupine::quill::eqsat;

int EGraph::internConstant(const PlainConstant &C) {
  std::vector<int64_t> Residues;
  Residues.reserve(C.Values.size());
  for (int64_t V : C.Values)
    Residues.push_back(static_cast<int64_t>(toResidue(V, Modulus)));
  auto It = ConstIndex.find(Residues);
  if (It != ConstIndex.end())
    return It->second;
  int Idx = static_cast<int>(Constants.size());
  Constants.push_back(PlainConstant{Residues});
  ConstIndex.emplace(std::move(Residues), Idx);
  return Idx;
}

std::optional<uint64_t> EGraph::splatOf(int Idx) const {
  const PlainConstant &C = Constants[Idx];
  if (!C.isSplat())
    return std::nullopt;
  return static_cast<uint64_t>(C.Values[0]); // Interned as a residue.
}

int EGraph::find(int Class) const {
  while (Parent[Class] != Class) {
    Parent[Class] = Parent[Parent[Class]]; // Path halving.
    Class = Parent[Class];
  }
  return Class;
}

ENode EGraph::canonicalize(ENode N) const {
  if (N.isInput())
    return N;
  N.A = find(N.A);
  if (isCtCt(N.op())) {
    N.B = find(N.B);
    if (isCommutative(N.op()) && N.B < N.A)
      std::swap(N.A, N.B);
  }
  return N;
}

int EGraph::addNode(ENode N) {
  N = canonicalize(N);
  auto It = Hashcons.find(N);
  if (It != Hashcons.end())
    return find(It->second);
  int Id = static_cast<int>(Parent.size());
  Parent.push_back(Id);
  ClassNodes.push_back({N});
  Hashcons.emplace(N, Id);
  ++NumNodes;
  ++Version;
  return Id;
}

int EGraph::addInput(int Index) {
  ENode N;
  N.Kind = -1;
  N.Payload = Index;
  return addNode(N);
}

int EGraph::addCtCt(Opcode Op, int A, int B) {
  assert(isCtCt(Op) && "addCtCt wants a ct-ct opcode");
  ENode N;
  N.Kind = static_cast<int>(Op);
  N.A = A;
  N.B = B;
  return addNode(N);
}

int EGraph::addCtPt(Opcode Op, int A, int ConstIdx) {
  assert(isCtPt(Op) && "addCtPt wants a ct-pt opcode");
  ENode N;
  N.Kind = static_cast<int>(Op);
  N.A = A;
  N.Payload = ConstIdx;
  return addNode(N);
}

int EGraph::addRot(int A, int Amount) {
  if (Amount == 0)
    return find(A); // rot(x, 0) == x: never stored.
  ENode N;
  N.Kind = static_cast<int>(Opcode::RotCt);
  N.A = A;
  N.Payload = Amount;
  return addNode(N);
}

bool EGraph::merge(int A, int B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return false;
  // Smaller id wins: canonical roots are stable and deterministic.
  int Winner = std::min(A, B);
  int Loser = std::max(A, B);
  Parent[Loser] = Winner;
  std::vector<ENode> &Dst = ClassNodes[Winner];
  std::vector<ENode> &Src = ClassNodes[Loser];
  Dst.insert(Dst.end(), Src.begin(), Src.end());
  Src.clear();
  Src.shrink_to_fit();
  Dirty = true;
  ++Version;
  return true;
}

void EGraph::rebuild() {
  if (!Dirty)
    return;
  // Whole-graph fixpoint restoration: recanonicalize and dedup every
  // class's node list, then re-hashcons the whole graph; any hashcons
  // collision across two classes is a congruence (the classes hold a
  // structurally identical node) and is merged, which may re-dirty
  // children — loop until clean. A round is O(n log n) in the live nodes,
  // and rounds repeat once per level a congruence propagates upward.
  // Classes are visited in id order, so the merges are deterministic.
  for (;;) {
    int NumIds = static_cast<int>(Parent.size());
    for (int C = 0; C < NumIds; ++C) {
      if (find(C) != C)
        continue;
      std::vector<ENode> &Nodes = ClassNodes[C];
      for (ENode &N : Nodes)
        N = canonicalize(N);
      std::sort(Nodes.begin(), Nodes.end());
      auto Dups = std::unique(Nodes.begin(), Nodes.end());
      NumNodes -= static_cast<size_t>(Nodes.end() - Dups);
      Nodes.erase(Dups, Nodes.end());
    }
    Hashcons.clear();
    std::vector<std::pair<int, int>> Pending;
    for (int C = 0; C < NumIds; ++C) {
      if (find(C) != C)
        continue;
      for (const ENode &N : ClassNodes[C]) {
        auto It = Hashcons.find(N);
        if (It == Hashcons.end())
          Hashcons.emplace(N, C);
        else if (find(It->second) != C)
          Pending.emplace_back(It->second, C);
      }
    }
    if (Pending.empty())
      break;
    for (const auto &P : Pending)
      merge(P.first, P.second);
  }
  Dirty = false;
}

std::vector<int> EGraph::classIds() const {
  assert(!Dirty && "rebuild() before reading classes");
  std::vector<int> Ids;
  for (int C = 0; C < static_cast<int>(Parent.size()); ++C)
    if (find(C) == C)
      Ids.push_back(C);
  return Ids;
}

size_t EGraph::numClasses() const {
  size_t N = 0;
  for (int C = 0; C < static_cast<int>(Parent.size()); ++C)
    if (find(C) == C)
      ++N;
  return N;
}

bool EGraph::checkInvariants(std::string *Why) const {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (Dirty)
    return Fail("graph read while dirty (rebuild() missing)");
  std::map<ENode, int> Seen;
  size_t Recount = 0;
  for (int C = 0; C < static_cast<int>(Parent.size()); ++C) {
    if (find(C) != C) {
      if (!ClassNodes[C].empty())
        return Fail("non-canonical class " + std::to_string(C) +
                    " still holds nodes");
      continue;
    }
    const std::vector<ENode> &Nodes = ClassNodes[C];
    if (Nodes.empty())
      return Fail("canonical class " + std::to_string(C) + " has no nodes");
    Recount += Nodes.size();
    for (size_t I = 0; I < Nodes.size(); ++I) {
      const ENode &N = Nodes[I];
      if (!(canonicalize(N) == N))
        return Fail("class " + std::to_string(C) +
                    " holds a non-canonical node");
      if (I && !(Nodes[I - 1] < N))
        return Fail("class " + std::to_string(C) +
                    " node list unsorted or duplicated");
      auto It = Seen.find(N);
      if (It != Seen.end() && It->second != C)
        return Fail("congruence violated: classes " +
                    std::to_string(It->second) + " and " +
                    std::to_string(C) + " share a node");
      Seen.emplace(N, C);
    }
  }
  if (Recount != NumNodes)
    return Fail("node counter " + std::to_string(NumNodes) +
                " differs from the recount " + std::to_string(Recount));
  return true;
}
