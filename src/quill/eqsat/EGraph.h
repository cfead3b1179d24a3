//===- quill/eqsat/EGraph.h - E-graph over Quill IR -------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free e-graph (egg-style) over Quill IR, the core of
/// the `eqsat` equality-saturation pass. An e-graph represents a set of
/// equivalent terms compactly: e-classes are union-find sets of e-nodes,
/// e-nodes are operators over e-class ids, and a hashcons map deduplicates
/// structurally identical e-nodes so congruent terms share storage
/// (CSE-by-construction). After merges, rebuild() restores the two
/// invariants every read depends on:
///
///   * canonical children — every stored e-node refers to e-classes by
///     their canonical (union-find root) id;
///   * congruence closure — two e-nodes that become structurally identical
///     after canonicalization live in the same e-class.
///
/// Determinism: canonical roots are the *smallest* class id in a merged
/// set, and every walk visits class ids in ascending order and node lists
/// sorted (rebuild re-sorts them). The hashcons is a hash table, but code
/// only probes and fills it, never iterates it, so its order cannot leak:
/// the sweeps in Rules.cpp and extraction in Extract.cpp see the same
/// graph in the same order on every run and thread count.
///
/// Normalization at insertion time keeps the graph small:
///   * commutative ct-ct operands (add, mul) are stored sorted;
///   * a rotate-by-zero collapses to its operand's class;
///   * plaintext constants are interned as residues mod t, so constants
///     equal mod t share one table index.
///
/// Rotation amounts are stored raw, not reduced mod the vector width W:
/// rot(x, -1) and rot(x, W-1) agree on W slots but not on a ciphertext
/// row of N/2 slots, where encrypted programs rotate. Every equality the
/// graph holds is therefore exact on the row too.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_EQSAT_EGRAPH_H
#define PORCUPINE_QUILL_EQSAT_EGRAPH_H

#include "quill/Program.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace porcupine {
namespace quill {
namespace eqsat {

/// One e-node: an operator over e-class ids. `Kind` is -1 for an input
/// leaf (Payload = input index) or the int value of a quill::Opcode.
/// Children A (always, for ops) and B (ct-ct ops) are e-class ids;
/// Payload holds the input index, the plaintext-table index (ct-pt ops),
/// or the nonzero signed left-rotation amount (rot-ct).
struct ENode {
  int Kind = -1;
  int A = -1;
  int B = -1;
  int Payload = 0;

  bool isInput() const { return Kind < 0; }
  Opcode op() const { return static_cast<Opcode>(Kind); }

  bool operator==(const ENode &R) const {
    return Kind == R.Kind && A == R.A && B == R.B && Payload == R.Payload;
  }
  bool operator<(const ENode &R) const {
    if (Kind != R.Kind)
      return Kind < R.Kind;
    if (A != R.A)
      return A < R.A;
    if (B != R.B)
      return B < R.B;
    return Payload < R.Payload;
  }
};

/// Hash for the hashcons: packs the four fields into two words and mixes.
struct ENodeHash {
  size_t operator()(const ENode &N) const {
    auto Pack = [](int Hi, int Lo) {
      return static_cast<uint64_t>(static_cast<uint32_t>(Hi)) << 32 |
             static_cast<uint32_t>(Lo);
    };
    uint64_t H =
        Pack(N.Kind, N.A) * 0x9e3779b97f4a7c15ull ^ Pack(N.B, N.Payload);
    H ^= H >> 31;
    H *= 0xbf58476d1ce4e5b9ull;
    return static_cast<size_t>(H ^ (H >> 29));
  }
};

/// The e-graph. Construct with the program's vector width and plaintext
/// modulus; add terms bottom-up with the add*() builders (each returns the
/// canonical e-class id of the term); assert equalities with merge(); call
/// rebuild() after a batch of merges before reading node lists again.
class EGraph {
public:
  EGraph(size_t Width, uint64_t Modulus) : Width(Width), Modulus(Modulus) {}

  size_t width() const { return Width; }
  uint64_t modulus() const { return Modulus; }

  /// Interns a plaintext constant (values reduced to residues mod t, so
  /// constants equal mod t share an index) and returns its table index.
  int internConstant(const PlainConstant &C);
  const PlainConstant &constant(int Idx) const { return Constants[Idx]; }
  size_t numConstants() const { return Constants.size(); }
  /// The splat residue of constant \p Idx, or nullopt for full vectors.
  std::optional<uint64_t> splatOf(int Idx) const;

  /// Term builders. Each canonicalizes, consults the hashcons, and returns
  /// the canonical class id (allocating a fresh singleton class for a
  /// never-seen node). addRot() keeps the amount as given and returns the
  /// operand's class unchanged for a rotation by 0.
  int addInput(int Index);
  int addCtCt(Opcode Op, int A, int B);
  int addCtPt(Opcode Op, int A, int ConstIdx);
  int addRot(int A, int Amount);

  /// Canonical (union-find root) id of \p Class.
  int find(int Class) const;

  /// Asserts two classes are equal. Returns true when they were distinct
  /// (the graph changed and needs a rebuild()). The canonical root of the
  /// merged class is the smaller of the two roots (determinism).
  bool merge(int A, int B);

  /// Restores canonical children and congruence closure after merges.
  /// Idempotent; cheap when nothing is dirty.
  void rebuild();

  /// Live canonical class ids, ascending. Requires a rebuilt graph.
  std::vector<int> classIds() const;
  /// The (sorted, deduplicated) e-nodes of canonical class \p Class.
  /// Requires a rebuilt graph.
  const std::vector<ENode> &nodes(int Class) const {
    return ClassNodes[find(Class)];
  }

  /// Live class count. Requires a rebuilt graph.
  size_t numClasses() const;
  /// Live node count, in O(1) and at any time: on a dirty graph it
  /// includes the duplicates the next rebuild() removes, exactly as a
  /// recount over the canonical classes' node lists would.
  size_t numNodes() const { return NumNodes; }

  /// Bumped whenever the graph structurally changes (new node allocated or
  /// two distinct classes merged). A saturation iteration that leaves
  /// version() unchanged has reached a fixpoint.
  uint64_t version() const { return Version; }

  /// Invariant check for tests: every stored node canonical, every class's
  /// node list sorted and unique, no two distinct classes containing a
  /// structurally identical node, and numNodes() equal to a recount.
  /// Returns false and fills \p Why (when non-null) on violation.
  /// Requires a rebuilt graph.
  bool checkInvariants(std::string *Why = nullptr) const;

private:
  int addNode(ENode N);
  ENode canonicalize(ENode N) const;

  size_t Width;
  uint64_t Modulus;
  // Union-find over class ids; mutable for path-halving in const find().
  mutable std::vector<int> Parent;
  // Node lists per class id; only canonical roots hold nodes after a
  // rebuild (merge moves the loser's nodes into the winner).
  std::vector<std::vector<ENode>> ClassNodes;
  // Sum of the canonical classes' node-list sizes: addNode adds one,
  // merge moves nodes without changing it, rebuild subtracts the
  // duplicates it drops.
  size_t NumNodes = 0;
  std::unordered_map<ENode, int, ENodeHash> Hashcons;
  std::vector<PlainConstant> Constants;
  std::map<std::vector<int64_t>, int> ConstIndex;
  uint64_t Version = 0;
  bool Dirty = false;
};

} // namespace eqsat
} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_EQSAT_EGRAPH_H
