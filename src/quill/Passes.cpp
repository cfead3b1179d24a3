//===- quill/Passes.cpp - Optimizer pass pipeline --------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/Passes.h"

#include "quill/Analysis.h"
#include "quill/Peephole.h"
#include "quill/eqsat/Saturate.h"
#include "math/ModArith.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>

using namespace porcupine;
using namespace porcupine::quill;

//===----------------------------------------------------------------------===//
// Shared rebuild helpers
//===----------------------------------------------------------------------===//

namespace {

/// Copies the program header (everything but instructions/output) so every
/// pass rebuild starts from a faithful shell.
Program headerOf(const Program &P) {
  Program Out;
  Out.NumInputs = P.NumInputs;
  Out.VectorSize = P.VectorSize;
  Out.ExplicitRelin = P.ExplicitRelin;
  Out.Constants = P.Constants;
  return Out;
}

/// Removes instructions that do not feed the output, renumbering values,
/// and drops plaintext constants no remaining instruction references.
/// Returns the number of instructions removed (constant compaction alone
/// does not count as a rewrite).
int pruneDeadCode(Program &P) {
  int Removed = 0;
  auto Dead = deadValues(P);
  if (!Dead.empty()) {
    Program Out = headerOf(P);
    std::vector<bool> IsDead(P.numValues(), false);
    for (int Id : Dead)
      IsDead[Id] = true;
    std::vector<int> Remap(P.numValues(), -1);
    for (int I = 0; I < P.NumInputs; ++I)
      Remap[I] = I;
    for (size_t K = 0; K < P.Instructions.size(); ++K) {
      int Id = P.valueOf(K);
      if (IsDead[Id]) {
        ++Removed;
        continue;
      }
      Instr I = P.Instructions[K];
      I.Src0 = Remap[I.Src0];
      if (isCtCt(I.Op))
        I.Src1 = Remap[I.Src1];
      Remap[Id] = Out.append(I);
    }
    Out.Output = Remap[P.outputId()];
    P = std::move(Out);
  }

  // Constant compaction: folding can orphan table entries; dropping them
  // keeps printProgram output (and artifacts) minimal and makes reruns
  // stable.
  std::vector<bool> Used(P.Constants.size(), false);
  for (const Instr &I : P.Instructions)
    if (isCtPt(I.Op))
      Used[I.PtIdx] = true;
  if (std::find(Used.begin(), Used.end(), false) != Used.end()) {
    std::vector<PlainConstant> Kept;
    std::vector<int> Remap(P.Constants.size(), -1);
    for (size_t I = 0; I < P.Constants.size(); ++I)
      if (Used[I]) {
        Remap[I] = static_cast<int>(Kept.size());
        Kept.push_back(P.Constants[I]);
      }
    for (Instr &I : P.Instructions)
      if (isCtPt(I.Op))
        I.PtIdx = Remap[I.PtIdx];
    P.Constants = std::move(Kept);
  }
  return Removed;
}

/// True if the instruction's second operand field participates for its
/// opcode; used to build injective CSE keys.
std::tuple<int, int, int, int, int> cseKey(const Instr &I) {
  int A = I.Src0, B = 0, Pt = -1, Rot = 0;
  if (isCtCt(I.Op)) {
    B = I.Src1;
    if (isCommutative(I.Op) && A > B)
      std::swap(A, B);
  } else if (isCtPt(I.Op)) {
    Pt = I.PtIdx;
  } else if (I.Op == Opcode::RotCt) {
    Rot = I.Rot;
  }
  return {static_cast<int>(I.Op), A, B, Pt, Rot};
}

//===----------------------------------------------------------------------===//
// peephole — the original rewrite-rule optimizer as pass zero
//===----------------------------------------------------------------------===//

class PeepholePass : public Pass {
public:
  const char *name() const override { return "peephole"; }
  int run(Program &P, const PassContext &Ctx) override {
    PeepholeStats Stats;
    Program Opt = peepholeOptimize(P, Ctx.Latency, &Stats);
    if (Stats.total() == 0)
      return 0;
    P = std::move(Opt);
    return Stats.total();
  }
};

//===----------------------------------------------------------------------===//
// cse — global common-subexpression elimination
//===----------------------------------------------------------------------===//

class CsePass : public Pass {
public:
  const char *name() const override { return "cse"; }
  int run(Program &P, const PassContext &) override {
    Program Out = headerOf(P);
    std::vector<int> Map(P.numValues(), -1);
    for (int I = 0; I < P.NumInputs; ++I)
      Map[I] = I;
    std::map<std::tuple<int, int, int, int, int>, int> Seen;
    int Rewrites = 0;
    for (size_t K = 0; K < P.Instructions.size(); ++K) {
      Instr I = P.Instructions[K];
      I.Src0 = Map[I.Src0];
      if (isCtCt(I.Op))
        I.Src1 = Map[I.Src1];
      auto Key = cseKey(I);
      auto It = Seen.find(Key);
      if (It != Seen.end()) {
        Map[P.valueOf(K)] = It->second;
        ++Rewrites;
        continue;
      }
      int Id = Out.append(I);
      Seen.emplace(Key, Id);
      Map[P.valueOf(K)] = Id;
    }
    if (!Rewrites)
      return 0;
    Out.Output = Map[P.outputId()];
    P = std::move(Out);
    return Rewrites;
  }
};

//===----------------------------------------------------------------------===//
// constfold — identities, rotate-by-0, raw rotation fusion, splat chains
//===----------------------------------------------------------------------===//

class ConstFoldPass : public Pass {
public:
  const char *name() const override { return "constfold"; }

  int run(Program &P, const PassContext &Ctx) override {
    int Total = 0;
    // Each round folds one layer of chains; iterate to fixpoint. The hard
    // cap guards a future oscillating rule even in assert-free builds:
    // every round preserves semantics, so breaking early returns a valid
    // (merely under-folded) program instead of hanging.
    for (;;) {
      int N = foldOnce(P, Ctx);
      if (!N)
        break;
      Total += N;
      assert(Total < 100000 && "constfold failed to reach a fixed point");
      if (Total >= 100000)
        break;
    }
    if (Total)
      pruneDeadCode(P);
    return Total;
  }

private:
  static bool splatOf(const Program &P, int PtIdx, int64_t &Out) {
    const PlainConstant &C = P.Constants[PtIdx];
    if (!C.isSplat())
      return false;
    Out = C.Values[0];
    return true;
  }

  int foldOnce(Program &P, const PassContext &Ctx) {
    uint64_t T = Ctx.PlainModulus;
    long Width = static_cast<long>(P.VectorSize);
    Program Out = headerOf(P);
    std::vector<int> Map(P.numValues(), -1);
    for (int I = 0; I < P.NumInputs; ++I)
      Map[I] = I;
    int N = 0;

    // The defining instruction of an *output* value id, if any.
    auto defOf = [&](int NewId) -> const Instr * {
      if (NewId < Out.NumInputs)
        return nullptr;
      return &Out.Instructions[NewId - Out.NumInputs];
    };

    for (size_t K = 0; K < P.Instructions.size(); ++K) {
      Instr I = P.Instructions[K];
      int Dst = P.valueOf(K);
      I.Src0 = Map[I.Src0];
      if (isCtCt(I.Op))
        I.Src1 = Map[I.Src1];

      if (isCtPt(I.Op)) {
        int64_t V;
        if (splatOf(P, I.PtIdx, V)) {
          uint64_t VR = toResidue(V, T);
          // Identities: x + 0, x - 0, x * 1.
          bool Identity =
              ((I.Op == Opcode::AddCtPt || I.Op == Opcode::SubCtPt) &&
               VR == 0) ||
              (I.Op == Opcode::MulCtPt && VR == 1);
          if (Identity) {
            Map[Dst] = I.Src0;
            ++N;
            continue;
          }
          // x * 0 -> canonical zero (sub(x, x) needs no constant table
          // entry and keeps the component degree of x).
          if (I.Op == Opcode::MulCtPt && VR == 0) {
            Map[Dst] = Out.append(Instr::ctCt(Opcode::SubCtCt, I.Src0,
                                              I.Src0));
            ++N;
            continue;
          }
          // Splat chains: (x ± a) ± b  ->  x + (±a ± b),
          //               (x * a) * b  ->  x * (a * b)   (all mod t).
          if (const Instr *Def = defOf(I.Src0)) {
            int64_t W;
            bool OuterAddSub =
                I.Op == Opcode::AddCtPt || I.Op == Opcode::SubCtPt;
            bool InnerAddSub =
                Def->Op == Opcode::AddCtPt || Def->Op == Opcode::SubCtPt;
            if (OuterAddSub && InnerAddSub && splatOf(Out, Def->PtIdx, W)) {
              uint64_t Inner = Def->Op == Opcode::AddCtPt
                                   ? toResidue(W, T)
                                   : negMod(toResidue(W, T), T);
              uint64_t Outer = I.Op == Opcode::AddCtPt
                                   ? VR
                                   : negMod(VR, T);
              uint64_t Net = addMod(Inner, Outer, T);
              if (Net == 0) {
                Map[Dst] = Def->Src0;
              } else {
                int Idx = Out.internConstant(PlainConstant{{toCentered(Net, T)}});
                Map[Dst] =
                    Out.append(Instr::ctPt(Opcode::AddCtPt, Def->Src0, Idx));
              }
              ++N;
              continue;
            }
            if (I.Op == Opcode::MulCtPt && Def->Op == Opcode::MulCtPt &&
                splatOf(Out, Def->PtIdx, W)) {
              uint64_t Net = mulMod(toResidue(W, T), VR, T);
              if (Net == 1) {
                Map[Dst] = Def->Src0;
              } else if (Net == 0) {
                Map[Dst] = Out.append(
                    Instr::ctCt(Opcode::SubCtCt, Def->Src0, Def->Src0));
              } else {
                int Idx = Out.internConstant(PlainConstant{{toCentered(Net, T)}});
                Map[Dst] =
                    Out.append(Instr::ctPt(Opcode::MulCtPt, Def->Src0, Idx));
              }
              ++N;
              continue;
            }
          }
        }
        Map[Dst] = Out.append(I);
        continue;
      }

      if (I.Op == Opcode::RotCt) {
        // Rotate-by-0. validate() rejects such programs, so on valid input
        // this only matters as a guard for intermediate forms.
        if (Width > 0 && I.Rot % Width == 0) {
          Map[Dst] = I.Src0;
          ++N;
          continue;
        }
        // Double-rotation fusion over *raw* amounts: rot(rot(x,a),b) is
        // rot(x,a+b) at every vector width. When a+b == 0 the pair cancels
        // outright; when a+b is a nonzero multiple of the width the fusion
        // would need the width-W-cyclic model (it would not survive wider
        // rows), so the pair is left alone — the peephole handles it under
        // the paper's model.
        if (const Instr *Def = defOf(I.Src0)) {
          if (Def->Op == Opcode::RotCt) {
            long Sum = static_cast<long>(Def->Rot) + I.Rot;
            if (Sum == 0) {
              Map[Dst] = Def->Src0;
              ++N;
              continue;
            }
            if (Width > 0 && Sum % Width != 0) {
              Map[Dst] = Out.append(
                  Instr::rot(Def->Src0, static_cast<int>(Sum)));
              ++N;
              continue;
            }
          }
        }
        Map[Dst] = Out.append(I);
        continue;
      }

      Map[Dst] = Out.append(I);
    }
    if (!N)
      return 0;
    Out.Output = Map[P.outputId()];
    P = std::move(Out);
    return N;
  }
};

//===----------------------------------------------------------------------===//
// lazy-relin — sink, share, and elide relinearizations
//===----------------------------------------------------------------------===//

class LazyRelinPass : public Pass {
public:
  const char *name() const override { return "lazy-relin"; }

  int run(Program &P, const PassContext &) override {
    int Muls = countInstructions(P).CtCtMuls;
    bool WasExplicit = P.ExplicitRelin;
    if (Muls == 0 && !WasExplicit)
      return 0; // Nothing to relinearize, nothing to convert.

    // Phase 1 — decide the minimal relinearization set. Existing Relin
    // instructions are transparent (Core resolves through them); the
    // analysis re-derives placement from the dataflow alone.
    //
    // NeedsRelin grows to a fixpoint: a value joins when some rotation or
    // multiply consumes it while it still carries three components. A
    // relinearized value propagates two components to every consumer, so
    // one membership can discharge many downstream candidates — e.g. in a
    // reduction add(mul, rot(mul)), relinearizing the mul (forced by the
    // rotation) also makes the add two-component, and the rest of the
    // rotate-add tree needs nothing.
    std::vector<int> Core(P.numValues());
    for (int I = 0; I < P.numValues(); ++I)
      Core[I] = I;
    for (size_t K = 0; K < P.Instructions.size(); ++K)
      if (P.Instructions[K].Op == Opcode::Relin)
        Core[P.valueOf(K)] = Core[P.Instructions[K].Src0];

    std::vector<bool> NeedsRelin(P.numValues(), false);
    auto degreesUnder = [&](std::vector<int> &Deg) {
      Deg.assign(P.numValues(), 2);
      for (size_t K = 0; K < P.Instructions.size(); ++K) {
        const Instr &I = P.Instructions[K];
        int Id = P.valueOf(K);
        auto Used = [&](int Src) {
          int C = Core[Src];
          return NeedsRelin[C] ? 2 : Deg[C];
        };
        switch (I.Op) {
        case Opcode::MulCtCt:
          Deg[Id] = 3;
          break;
        case Opcode::AddCtCt:
        case Opcode::SubCtCt:
          Deg[Id] = std::max(Used(I.Src0), Used(I.Src1));
          break;
        case Opcode::AddCtPt:
        case Opcode::SubCtPt:
        case Opcode::MulCtPt:
          Deg[Id] = Used(I.Src0);
          break;
        case Opcode::RotCt:
        case Opcode::Relin:
          Deg[Id] = 2;
          break;
        }
      }
    };
    for (;;) {
      std::vector<int> Deg;
      degreesUnder(Deg);
      bool Grew = false;
      auto Demand = [&](int Src) {
        int C = Core[Src];
        if (!NeedsRelin[C] && Deg[C] == 3) {
          NeedsRelin[C] = true;
          Grew = true;
        }
      };
      for (const Instr &I : P.Instructions) {
        if (I.Op == Opcode::RotCt) {
          Demand(I.Src0);
        } else if (I.Op == Opcode::MulCtCt) {
          Demand(I.Src0);
          Demand(I.Src1);
        }
      }
      if (!Grew)
        break;
    }
    // Drop members whose value ended up two-component anyway (a sweep can
    // demand an add-of-products before learning its operands get
    // relinearized); their relin would be a paid-for no-op. Removal cannot
    // change any other degree: consumers already saw two components.
    {
      std::vector<int> Deg;
      degreesUnder(Deg);
      for (int V = 0; V < P.numValues(); ++V)
        if (NeedsRelin[V] && Deg[V] == 2)
          NeedsRelin[V] = false;
    }

    // Phase 2 — rebuild: relinearize each NeedsRelin value right after
    // its definition and route every consumer through the two-component
    // copy; everything else stays raw (including a three-component
    // output — decryption handles it).
    Program Out = headerOf(P);
    Out.ExplicitRelin = true;
    std::vector<int> Map(P.numValues(), -1); // Old core id -> new id.
    for (int I = 0; I < P.NumInputs; ++I)
      Map[I] = I;
    int Emitted = 0;
    for (size_t K = 0; K < P.Instructions.size(); ++K) {
      const Instr &Old = P.Instructions[K];
      int Dst = P.valueOf(K);
      if (Old.Op == Opcode::Relin) {
        Map[Dst] = Map[Core[Old.Src0]];
        continue;
      }
      Instr I = Old;
      I.Src0 = Map[Core[I.Src0]];
      if (isCtCt(I.Op))
        I.Src1 = Map[Core[I.Src1]];
      int Id = Out.append(I);
      if (NeedsRelin[Dst]) {
        Instr R;
        R.Op = Opcode::Relin;
        R.Src0 = Id;
        Id = Out.append(R);
        ++Emitted;
      }
      Map[Dst] = Id;
    }
    Out.Output = Map[Core[P.outputId()]];
    pruneDeadCode(Out);

    // Commit only when the rebuilt form is no worse than what we started
    // with: for implicit input, one relin per multiply is exactly the
    // implicit cost, so converting would churn program text for zero win;
    // for explicit input, a hand-scheduled placement can beat this
    // analysis (it demands relins at consuming values, never upstream at
    // a shared three-component operand — a minimal multi-cut it does not
    // attempt), so never replace fewer relins with more.
    if (!WasExplicit && Emitted >= Muls)
      return 0;
    if (WasExplicit && Emitted > countInstructions(P).Relins)
      return 0;
    if (printProgram(Out) == printProgram(P))
      return 0;
    P = std::move(Out);
    return std::max(1, Muls - Emitted);
  }
};

//===----------------------------------------------------------------------===//
// rot-dedup — rotation sharing and hoisting
//===----------------------------------------------------------------------===//

class RotDedupPass : public Pass {
public:
  const char *name() const override { return "rot-dedup"; }

  int run(Program &P, const PassContext &) override {
    // Use counts over the original program (output counts as a use) gate
    // the hoist: rewriting op(rot(x,a), rot(y,a)) to rot(op(x,y), a) only
    // pays when both rotations die with the op.
    std::vector<int> Uses(P.numValues(), 0);
    for (const Instr &I : P.Instructions) {
      ++Uses[I.Src0];
      if (isCtCt(I.Op))
        ++Uses[I.Src1];
    }
    ++Uses[P.outputId()];

    auto oldDef = [&](int Id) -> const Instr * {
      if (Id < P.NumInputs)
        return nullptr;
      return &P.Instructions[Id - P.NumInputs];
    };

    Program Out = headerOf(P);
    std::vector<int> Map(P.numValues(), -1);
    for (int I = 0; I < P.NumInputs; ++I)
      Map[I] = I;
    std::map<std::pair<int, int>, int> RotTable; // (new src, raw amt) -> id
    int Rewrites = 0;

    for (size_t K = 0; K < P.Instructions.size(); ++K) {
      Instr I = P.Instructions[K];
      int Dst = P.valueOf(K);

      if (I.Op == Opcode::RotCt) {
        int Src = Map[I.Src0];
        auto Key = std::make_pair(Src, I.Rot);
        auto It = RotTable.find(Key);
        if (It != RotTable.end()) {
          Map[Dst] = It->second;
          ++Rewrites;
          continue;
        }
        int Id = Out.append(Instr::rot(Src, I.Rot));
        RotTable.emplace(Key, Id);
        Map[Dst] = Id;
        continue;
      }

      if (isCtCt(I.Op)) {
        // Hoist: rotations distribute over every slot-wise ring operation
        // (they are Galois automorphisms), exactly at any width. A raw
        // mul-ct-ct result has three components which a rotation cannot
        // consume, so in explicit-relin form only add/sub hoist.
        const Instr *DA = oldDef(I.Src0);
        const Instr *DB = oldDef(I.Src1);
        bool SameRot = DA && DB && DA->Op == Opcode::RotCt &&
                       DB->Op == Opcode::RotCt && DA->Rot == DB->Rot;
        bool SingleUse =
            I.Src0 == I.Src1
                ? Uses[I.Src0] == 2
                : (Uses[I.Src0] == 1 && Uses[I.Src1] == 1);
        bool DegreeOk = !(P.ExplicitRelin && I.Op == Opcode::MulCtCt);
        if (SameRot && SingleUse && DegreeOk) {
          int X = Map[DA->Src0];
          int Y = Map[DB->Src0];
          int OpId = Out.append(Instr::ctCt(I.Op, X, Y));
          auto Key = std::make_pair(OpId, DA->Rot);
          int RotId = Out.append(Instr::rot(OpId, DA->Rot));
          RotTable.emplace(Key, RotId);
          Map[Dst] = RotId;
          ++Rewrites;
          continue;
        }
        I.Src0 = Map[I.Src0];
        I.Src1 = Map[I.Src1];
        Map[Dst] = Out.append(I);
        continue;
      }

      I.Src0 = Map[I.Src0];
      Map[Dst] = Out.append(I);
    }
    if (!Rewrites)
      return 0;
    Out.Output = Map[P.outputId()];
    P = std::move(Out);
    pruneDeadCode(P);
    return Rewrites;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

const char *quill::defaultPipeline() {
  return "peephole,cse,constfold,lazy-relin,rot-dedup";
}

std::vector<std::string> quill::knownPassNames() {
  return {"peephole", "cse", "constfold", "lazy-relin", "rot-dedup",
          "eqsat"};
}

std::unique_ptr<Pass> quill::createPass(const std::string &Name) {
  if (Name == "peephole")
    return std::make_unique<PeepholePass>();
  if (Name == "cse")
    return std::make_unique<CsePass>();
  if (Name == "constfold")
    return std::make_unique<ConstFoldPass>();
  if (Name == "lazy-relin")
    return std::make_unique<LazyRelinPass>();
  if (Name == "rot-dedup")
    return std::make_unique<RotDedupPass>();
  if (Name == "eqsat")
    return eqsat::createEqSatPass();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

Expected<PassManager> PassManager::fromPipeline(const std::string &Pipeline,
                                                PassManagerOptions Opts) {
  PassManager PM(std::move(Opts));
  size_t Pos = 0;
  while (Pos <= Pipeline.size()) {
    size_t Comma = Pipeline.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Pipeline.size();
    std::string Name = Pipeline.substr(Pos, Comma - Pos);
    // Trim surrounding spaces so "a, b" parses.
    while (!Name.empty() && Name.front() == ' ')
      Name.erase(Name.begin());
    while (!Name.empty() && Name.back() == ' ')
      Name.pop_back();
    if (Name.empty()) {
      if (Pipeline.empty())
        return PM; // The empty pipeline.
      std::string Known;
      for (const std::string &N : knownPassNames())
        Known += (Known.empty() ? "" : ", ") + N;
      return Status::error("optimizer", "empty pass name in pipeline '" +
                                            Pipeline +
                                            "'; known passes: " + Known);
    }
    std::unique_ptr<Pass> P = createPass(Name);
    if (!P) {
      std::string Known;
      for (const std::string &N : knownPassNames())
        Known += (Known.empty() ? "" : ", ") + N;
      return Status::error("optimizer", "unknown pass '" + Name +
                                            "'; known passes: " + Known);
    }
    PM.add(std::move(P));
    Pos = Comma + 1;
  }
  return PM;
}

Expected<PipelineStats> PassManager::run(Program &P) {
  const uint64_t T = Opts.Context.PlainModulus;

  // Shape-check the verification examples once, then pin the reference
  // outputs of the *input* program: every pass must preserve them.
  for (const auto &Example : Opts.Examples) {
    if (static_cast<int>(Example.size()) != P.NumInputs)
      return Status::error("optimizer",
                           "verification example has " +
                               std::to_string(Example.size()) +
                               " input vector(s) but the program takes " +
                               std::to_string(P.NumInputs));
    for (const SlotVector &V : Example)
      if (V.size() != P.VectorSize)
        return Status::error(
            "optimizer",
            "verification example width " + std::to_string(V.size()) +
                " does not match the program's " +
                std::to_string(P.VectorSize));
  }
  std::vector<SlotVector> Reference;
  Reference.reserve(Opts.Examples.size());
  for (const auto &Example : Opts.Examples)
    Reference.push_back(interpret(P, Example, T));

  CostModel Cost(Opts.Context.Latency);
  PipelineStats Stats;
  for (std::unique_ptr<Pass> &Cur : Passes) {
    PassRunStats S;
    S.Pass = Cur->name();
    InstrMix Before = countInstructions(P);
    S.CostBefore = Cost.cost(P);
    S.CostAfter = S.CostBefore;

    Program Snapshot = P;
    S.Rewrites = Cur->run(P, Opts.Context);
    // Pass-specific stats (eqsat's saturation state) surface even when
    // the pass commits nothing — "saturated, nothing cheaper" and
    // "budget-stopped" must stay distinguishable in the reports.
    Cur->annotateStats(S);
    if (S.Rewrites == 0) {
      Stats.Passes.push_back(std::move(S));
      continue;
    }

    std::string Invalid = P.validate();
    if (!Invalid.empty()) {
      P = std::move(Snapshot); // Contract: P stays at its last verified state.
      return Status::error("optimizer",
                           "pass '" + S.Pass +
                               "' produced an invalid program: " + Invalid);
    }
    for (size_t E = 0; E < Opts.Examples.size(); ++E)
      if (interpret(P, Opts.Examples[E], T) != Reference[E]) {
        P = std::move(Snapshot); // Contract: P stays at its last verified state.
        return Status::error(
            "optimizer",
            "pass '" + S.Pass + "' changed program behavior on example " +
                std::to_string(E) +
                " — optimizer bug; rerun with this pass removed from the "
                "pipeline and please report it");
      }

    double After = Cost.cost(P);
    if (After > S.CostBefore + 1e-9) {
      P = std::move(Snapshot);
      S.Reverted = true;
      S.RejectedCost = After;
      Stats.Passes.push_back(std::move(S));
      continue;
    }

    InstrMix AfterMix = countInstructions(P);
    S.CostAfter = After;
    S.InstructionsRemoved = Before.Total - AfterMix.Total;
    S.RotationsEliminated = Before.Rotations - AfterMix.Rotations;
    // Relins actually performed at runtime: one per mul in implicit form,
    // one per Relin instruction in explicit form.
    int RelinsBefore =
        Snapshot.ExplicitRelin ? Before.Relins : Before.CtCtMuls;
    int RelinsAfter = P.ExplicitRelin ? AfterMix.Relins : AfterMix.CtCtMuls;
    S.RelinsDeferred = RelinsBefore - RelinsAfter;
    Stats.Passes.push_back(std::move(S));
  }
  return Stats;
}
