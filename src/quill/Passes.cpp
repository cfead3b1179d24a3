//===- quill/Passes.cpp - Optimizer pass pipeline --------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/Passes.h"

#include "quill/Analysis.h"
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

/// Value-numbering key: equal keys name equal values (commutative operands
/// are ordered, so add(a, b) and add(b, a) share one key).
std::tuple<int, int, int, int, int> valueKey(const Instr &I) {
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

/// Uses of each value by the instructions that feed the output (the output
/// itself counts as one use); dead values read 0.
std::vector<int> liveUses(const Program &P) {
  std::vector<int> Uses(P.numValues(), 0);
  ++Uses[P.outputId()];
  for (size_t K = P.Instructions.size(); K-- > 0;) {
    if (!Uses[P.valueOf(K)])
      continue;
    const Instr &I = P.Instructions[K];
    ++Uses[I.Src0];
    if (isCtCt(I.Op))
      ++Uses[I.Src1];
  }
  return Uses;
}

//===----------------------------------------------------------------------===//
// The greedy rewriter: peephole, cse, constfold and rot-dedup
//===----------------------------------------------------------------------===//
//
// The four greedy passes share one walk and differ only in the rules they
// try. A walk round rebuilds the program front to back: it remaps each
// instruction's operands into the rebuilt program, tries the rules in
// order, and appends what survives. Rounds repeat until none fires; one
// pruneDeadCode then drops what the rewrites orphaned. Every rule is exact
// at any row width: rotation amounts and keys stay raw, never reduced mod
// the program width, so a rewritten program computes the same ciphertext
// row as the original.

struct Walk;

/// A local rewrite rule. It sees one instruction whose operands name
/// rebuilt values and either forwards it to an equal rebuilt value (sets
/// \p Fwd) or rewrites \p I in place. Returns whether it fired.
using Rule = bool (*)(Walk &W, Instr &I, int &Fwd);

/// One round's rebuilt program and what the rules may ask about it.
struct Walk {
  Walk(const Program &In, const PassContext &Ctx,
       const std::vector<Rule> &Rules, std::vector<int> InputUses)
      : Out(headerOf(In)), Ctx(Ctx), Rules(Rules),
        Uses(std::move(InputUses)) {}

  /// Runs \p I through the rules, restarting after every rewrite, and
  /// appends it unless a rule forwarded it. Returns the id of its value,
  /// which gains \p NewUses uses.
  int emit(Instr I, int NewUses) {
    for (size_t R = 0; R < Rules.size();) {
      int Fwd = -1;
      if (!Rules[R](*this, I, Fwd)) {
        ++R;
        continue;
      }
      ++Rewrites;
      if (Fwd >= 0) {
        Uses[Fwd] += NewUses;
        return Fwd;
      }
      R = 0;
    }
    int Id = Out.append(I);
    Uses.push_back(NewUses);
    Numbers.emplace(valueKey(I), Id);
    return Id;
  }

  /// The rebuilt instruction defining \p Id, or nullptr for an input. It
  /// points into the vector emit() appends to: read it before emitting.
  const Instr *def(int Id) const {
    return Id < Out.NumInputs ? nullptr
                              : &Out.Instructions[Id - Out.NumInputs];
  }

  /// An already rebuilt value equal to \p I, or -1.
  int lookup(const Instr &I) const {
    auto It = Numbers.find(valueKey(I));
    return It == Numbers.end() ? -1 : It->second;
  }

  /// True if constant \p PtIdx is a splat; \p V gets its residue mod t.
  bool splat(int PtIdx, uint64_t &V) const {
    const PlainConstant &C = Out.Constants[PtIdx];
    if (!C.isSplat())
      return false;
    V = toResidue(C.Values[0], Ctx.PlainModulus);
    return true;
  }

  Program Out;
  const PassContext &Ctx;
  const std::vector<Rule> &Rules;
  /// Live uses of each rebuilt value, carried over from the round's input.
  std::vector<int> Uses;
  std::map<std::tuple<int, int, int, int, int>, int> Numbers;
  int Rewrites = 0;
};

/// Any instruction equal to a rebuilt one reuses it (value numbering).
bool shareAll(Walk &W, Instr &I, int &Fwd) {
  Fwd = W.lookup(I);
  return Fwd >= 0;
}

/// A rotation equal to a rebuilt one (same source, same raw amount)
/// reuses it.
bool shareRotations(Walk &W, Instr &I, int &Fwd) {
  return I.Op == Opcode::RotCt && shareAll(W, I, Fwd);
}

/// rot(x, 0) -> x. validate() rejects such rotations, so this only guards
/// intermediate forms.
bool rotateByZero(Walk &, Instr &I, int &Fwd) {
  if (I.Op != Opcode::RotCt || I.Rot != 0)
    return false;
  Fwd = I.Src0;
  return true;
}

/// rot(rot(x, a), b) -> rot(x, a + b), and -> x when a + b == 0. A sum
/// that is a nonzero multiple of the width is the identity only on a row
/// of exactly that width, so that pair is left alone.
bool fuseRotations(Walk &W, Instr &I, int &Fwd) {
  const Instr *D = I.Op == Opcode::RotCt ? W.def(I.Src0) : nullptr;
  if (!D || D->Op != Opcode::RotCt)
    return false;
  long Sum = static_cast<long>(D->Rot) + I.Rot;
  if (Sum == 0) {
    Fwd = D->Src0;
    return true;
  }
  long Width = static_cast<long>(W.Out.VectorSize);
  if (Width && Sum % Width == 0)
    return false;
  I = Instr::rot(D->Src0, static_cast<int>(Sum));
  return true;
}

/// x + 0, x - 0, x * 1 -> x; x * 0 -> sub(x, x), a zero that needs no
/// constant and keeps the component degree of x. Splats compare mod t.
bool identities(Walk &W, Instr &I, int &Fwd) {
  uint64_t V = 0;
  if (!isCtPt(I.Op) || !W.splat(I.PtIdx, V))
    return false;
  bool Mul = I.Op == Opcode::MulCtPt;
  if (V == (Mul ? 1u : 0u)) {
    Fwd = I.Src0;
    return true;
  }
  if (!Mul || V != 0)
    return false;
  I = Instr::ctCt(Opcode::SubCtCt, I.Src0, I.Src0);
  return true;
}

/// (x ± a) ± b -> x + (±a ± b) and (x * a) * b -> x * (a * b), mod t.
bool splatChains(Walk &W, Instr &I, int &) {
  const Instr *D = isCtPt(I.Op) ? W.def(I.Src0) : nullptr;
  uint64_t A = 0, B = 0;
  if (!D || !isCtPt(D->Op) || !W.splat(D->PtIdx, A) || !W.splat(I.PtIdx, B))
    return false;
  bool Mul = I.Op == Opcode::MulCtPt;
  if (Mul != (D->Op == Opcode::MulCtPt))
    return false;
  uint64_t T = W.Ctx.PlainModulus;
  uint64_t Net =
      Mul ? mulMod(A, B, T)
          : addMod(D->Op == Opcode::SubCtPt ? negMod(A, T) : A,
                   I.Op == Opcode::SubCtPt ? negMod(B, T) : B, T);
  int X = D->Src0;
  int Idx = W.Out.internConstant(PlainConstant{{toCentered(Net, T)}});
  I = Instr::ctPt(Mul ? Opcode::MulCtPt : Opcode::AddCtPt, X, Idx);
  return true;
}

/// x * 2 -> x + x when an addition is cheaper than a ct-pt multiply.
bool mulByTwo(Walk &W, Instr &I, int &) {
  uint64_t V = 0;
  if (I.Op != Opcode::MulCtPt || !W.splat(I.PtIdx, V) || V != 2 ||
      !(W.Ctx.Latency.AddCtCt < W.Ctx.Latency.MulCtPt))
    return false;
  I = Instr::ctCt(Opcode::AddCtCt, I.Src0, I.Src0);
  return true;
}

/// op(rot(x, a), rot(y, a)) -> rot(op(x, y), a) when both rotations die
/// with the op. Rotations are Galois automorphisms, so they distribute
/// over every slot-wise ring operation at any width; in explicit-relin
/// form a raw product has three components no rotation can take, so only
/// add and sub hoist there.
bool hoistRotations(Walk &W, Instr &I, int &) {
  if (!isCtCt(I.Op) || (I.Op == Opcode::MulCtCt && W.Out.ExplicitRelin))
    return false;
  const Instr *A = W.def(I.Src0);
  const Instr *B = W.def(I.Src1);
  if (!A || !B || A->Op != Opcode::RotCt || B->Op != Opcode::RotCt ||
      A->Rot != B->Rot)
    return false;
  bool SingleUse = I.Src0 == I.Src1
                       ? W.Uses[I.Src0] == 2
                       : W.Uses[I.Src0] == 1 && W.Uses[I.Src1] == 1;
  if (!SingleUse)
    return false;
  int X = A->Src0, Y = B->Src0, Amount = A->Rot;
  I = Instr::rot(W.emit(Instr::ctCt(I.Op, X, Y), 1), Amount);
  return true;
}

/// One walk round over \p P. Commits the rebuilt program and returns the
/// rule applications, or returns 0 and leaves \p P untouched.
int rewriteOnce(Program &P, const PassContext &Ctx,
                const std::vector<Rule> &Rules) {
  std::vector<int> Uses = liveUses(P);
  Walk W(P, Ctx, Rules,
         std::vector<int>(Uses.begin(), Uses.begin() + P.NumInputs));
  std::vector<int> Map(P.numValues(), -1);
  for (int I = 0; I < P.NumInputs; ++I)
    Map[I] = I;
  for (size_t K = 0; K < P.Instructions.size(); ++K) {
    Instr I = P.Instructions[K];
    I.Src0 = Map[I.Src0];
    if (isCtCt(I.Op))
      I.Src1 = Map[I.Src1];
    int Id = P.valueOf(K);
    Map[Id] = W.emit(I, Uses[Id]);
  }
  if (!W.Rewrites)
    return 0;
  W.Out.Output = Map[P.outputId()];
  P = std::move(W.Out);
  return W.Rewrites;
}

/// A greedy pass: a name and the rules its walk tries, in order. Its
/// rewrite count is the rule applications plus the input's dead
/// instructions.
class RewritePass : public Pass {
public:
  RewritePass(const char *Name, std::vector<Rule> Rules)
      : Name(Name), Rules(std::move(Rules)) {}

  const char *name() const override { return Name; }

  int run(Program &P, const PassContext &Ctx) override {
    int Total = static_cast<int>(deadValues(P).size());
    // Every rule removes an instruction or moves one onto an earlier
    // definition, so the rounds end; the cap guards a future rule that
    // does not (each round preserves semantics, so stopping is safe).
    for (int Round = 1;; ++Round) {
      int N = rewriteOnce(P, Ctx, Rules);
      if (!N)
        break;
      Total += N;
      assert(Round < 4096 && "greedy rewriter failed to reach a fixed point");
      if (Round >= 4096)
        break;
    }
    if (Total)
      pruneDeadCode(P);
    return Total;
  }

private:
  const char *Name;
  std::vector<Rule> Rules;
};

//===----------------------------------------------------------------------===//
// lazy-relin — sink, share, and elide relinearizations
//===----------------------------------------------------------------------===//

class LazyRelinPass : public Pass {
public:
  const char *name() const override { return "lazy-relin"; }

  int run(Program &In, const PassContext &Ctx) override {
    int Muls = countInstructions(In).CtCtMuls;
    bool WasExplicit = In.ExplicitRelin;
    if (Muls == 0 && !WasExplicit)
      return 0; // Nothing to relinearize, nothing to convert.

    // Decide on the input with dead code dropped and duplicates shared.
    // Otherwise a dead consumer demands a relin that outlives it once the
    // rebuild prunes the consumer, and two copies of a product each
    // demand a relin where one would serve both; a second run would then
    // find more to do.
    Program P = In;
    createPass("cse")->run(P, Ctx);

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
    if (WasExplicit && Emitted > countInstructions(In).Relins)
      return 0;
    if (printProgram(Out) == printProgram(In))
      return 0;
    In = std::move(Out);
    return std::max(1, Muls - Emitted);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

const char *quill::defaultPipeline() {
  // rot-dedup runs before lazy-relin: hoisting rot(relin(m)) pairs after
  // lazy-relin placed the relins hands a second lazy-relin run a program
  // whose relin it would move, so that order is not a fixed point.
  return "peephole,cse,constfold,rot-dedup,lazy-relin";
}

std::vector<std::string> quill::knownPassNames() {
  return {"peephole", "cse", "constfold", "rot-dedup", "lazy-relin",
          "eqsat"};
}

std::unique_ptr<Pass> quill::createPass(const std::string &Name) {
  if (Name == "peephole")
    return std::make_unique<RewritePass>(
        "peephole", std::vector<Rule>{shareRotations, rotateByZero,
                                      fuseRotations, identities, mulByTwo});
  if (Name == "cse")
    return std::make_unique<RewritePass>("cse", std::vector<Rule>{shareAll});
  if (Name == "constfold")
    return std::make_unique<RewritePass>(
        "constfold", std::vector<Rule>{identities, splatChains, rotateByZero,
                                       fuseRotations});
  if (Name == "lazy-relin")
    return std::make_unique<LazyRelinPass>();
  if (Name == "rot-dedup")
    return std::make_unique<RewritePass>(
        "rot-dedup",
        std::vector<Rule>{shareAll, hoistRotations, fuseRotations});
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
