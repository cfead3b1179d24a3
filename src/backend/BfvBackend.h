//===- backend/BfvBackend.h - In-tree BFV execution backend -----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default ExecutorBackend ("bfv"): real encrypted execution on the
/// in-tree RNS BFV runtime, wrapping backend/BfvExecutor bit-for-bit. The
/// backend builds one BfvContext per parameter set and shares it with
/// every session on that set; each session has fresh keys seeded from
/// ExecutionSeed, with Galois keys for exactly the program set's
/// rotations.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_BFVBACKEND_H
#define PORCUPINE_BACKEND_BFVBACKEND_H

#include "backend/ExecutorBackend.h"

#include <tuple>

namespace porcupine {
namespace backend {

class BfvBackend : public ExecutorBackend {
public:
  std::string name() const override { return "bfv"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{};
  }
  Expected<std::unique_ptr<Executor>>
  createExecutor(const SessionSpec &Spec) const override;

private:
  /// N, t, the coefficient prime sizes and the digit width: everything a
  /// BfvContext is built from.
  using ContextKey =
      std::tuple<size_t, uint64_t, std::vector<unsigned>, unsigned>;
  mutable SharedPerParams<ContextKey, BfvContext> Contexts;
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_BACKEND_BFVBACKEND_H
