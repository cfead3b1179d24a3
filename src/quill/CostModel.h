//===- quill/CostModel.h - Latency/noise cost model -------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Porcupine's compound cost model (paper section 5.2):
///
///   cost(p) = latency(p) * (1 + mdepth(p))
///
/// Latency sums per-instruction constants profiled from the HE library
/// (the paper profiles SEAL; we profile the bundled BFV evaluator — see
/// backend/LatencyProfiler). Multiplicative depth penalizes noise-hungry
/// programs, which would force larger parameters and slower arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_COSTMODEL_H
#define PORCUPINE_QUILL_COSTMODEL_H

#include "quill/Program.h"

#include <string>

namespace porcupine {
namespace quill {

/// Per-opcode latencies in microseconds. The defaults are rounded medians
/// from bench_bfv_microbench on a 1-core CI runner with the RNS-native
/// evaluator and scalar NTT butterflies; the vector NTT has since made
/// every opcode 2-5x cheaper, and re-deriving them is ROADMAP item 2(d),
/// since new defaults move synthesized programs. A compile prices with
/// CompileOptions::Synthesis.Latency, which defaults to this table;
/// LatencyProfiler measures a replacement when a live profile is wanted.
struct LatencyTable {
  double AddCtCt = 100.0;
  double AddCtPt = 120.0;
  double SubCtCt = 100.0;
  double SubCtPt = 120.0;
  /// Includes the mandatory relinearization (the paper's model, and how
  /// implicit-relin programs are priced).
  double MulCtCt = 7000.0;
  double MulCtPt = 400.0;
  double RotCt = 1500.0;
  /// One relinearization (a key switch, comparable to a rotation). In
  /// explicit-relin programs mul-ct-ct is priced raw (mulCtCtRaw()) and
  /// each Relin instruction adds this.
  double RelinCt = 1500.0;

  /// The raw tensor-product multiply without its relinearization.
  double mulCtCtRaw() const {
    return MulCtCt > RelinCt ? MulCtCt - RelinCt : 0.0;
  }

  double latencyOf(Opcode Op) const;
  std::string toString() const;
};

/// The paper's cost function.
class CostModel {
public:
  CostModel() = default;
  explicit CostModel(LatencyTable Table) : Table(Table) {}

  /// Sum of per-instruction latencies (microseconds).
  double latency(const Program &P) const;

  /// latency * (1 + multiplicative depth).
  double cost(const Program &P) const;

  const LatencyTable &table() const { return Table; }

private:
  LatencyTable Table;
};

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_COSTMODEL_H
