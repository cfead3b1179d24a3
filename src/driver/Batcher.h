//===- driver/Batcher.h - Cross-request ciphertext batching -----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-request ciphertext batching for the serving tier. A Porcupine
/// kernel is compiled against a small logical vector (VectorSize slots,
/// e.g. 8 for the dot product) but encrypted evaluation always runs over
/// the full BFV batching row (N/2 slots, e.g. 2048) — every homomorphic
/// op acts on all slots for the same price. BatchPlan decides how many
/// independent requests can share one ciphertext by tiling the row with
/// VectorSize-wide windows, one request per window:
///
///   * statically: every plaintext constant the program uses must be a
///     splat (a non-splat constant encodes per-slot data for ONE logical
///     vector and would not replicate across windows), and the row must
///     fit at least two windows;
///   * dynamically: seeded random trials run the program once at row
///     width through the Quill interpreter and compare every window's
///     *masked* output slots (KernelSpec::DataLayout::OutputMask) against
///     the per-request reference — rotations legitimately smear scratch
///     slots across window boundaries, which is why only masked slots are
///     (and may be) trusted.
///
/// A kernel that fails either check gets capacity 1 and the server serves
/// one request per ciphertext, in window 0 of the same packed path;
/// batching is an optimization, never a semantics change. pack()/slice()
/// implement the window layout used with CompiledKernel::executePacked().
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_DRIVER_BATCHER_H
#define PORCUPINE_DRIVER_BATCHER_H

#include "driver/Engine.h"
#include "spec/KernelSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace porcupine {
namespace driver {

/// One request's input vectors (one per program input, each at most
/// VectorSize wide; shorter vectors are zero-padded).
using RequestInputs = std::vector<std::vector<uint64_t>>;

/// Immutable batching decision for one compiled kernel; computed once per
/// (kernel, options) and reused for every batch.
class BatchPlan {
public:
  /// Analyzes \p K (compiled from \p Spec) for window batching, capping
  /// capacity at \p MaxBatch. Reads the row width from the kernel's
  /// runtime, building it on first use. Never fails: kernels that cannot
  /// batch — or whose runtime cannot be built — get capacity() == 1 with
  /// the reason in note().
  static BatchPlan analyze(const CompiledKernel &K, const KernelSpec &Spec,
                           size_t MaxBatch);

  /// Requests one encrypted execution can serve (>= 1).
  size_t capacity() const { return Capacity; }
  bool batchable() const { return Capacity > 1; }
  /// Window width in slots (the program's VectorSize).
  size_t window() const { return Window; }
  /// Batching-row width in slots (the runtime's slotCount(); 0 when it
  /// could not be built).
  size_t rowWidth() const { return Row; }
  /// Why capacity is 1 (empty when batchable).
  const std::string &note() const { return Note; }

  /// Lays out up to capacity() requests into row vectors for
  /// executePacked(): request k occupies slots [k*window(), (k+1)*window())
  /// of every input row. Inputs must each be checked (<= window() wide).
  std::vector<std::vector<uint64_t>>
  pack(const std::vector<const RequestInputs *> &Requests) const;

  /// Extracts request \p Index's output window from a decrypted row,
  /// zeroing every slot the kernel's layout leaves unconstrained (those
  /// carry cross-window scratch under batching).
  std::vector<uint64_t> slice(const std::vector<uint64_t> &RowOut,
                              size_t Index) const;

private:
  size_t Capacity = 1;
  size_t Window = 0;
  size_t Row = 0;
  int NumInputs = 0;
  std::vector<bool> Mask; ///< Window-wide; true = slot is meaningful.
  std::string Note;
};

} // namespace driver
} // namespace porcupine

#endif // PORCUPINE_DRIVER_BATCHER_H
