//===- backend/BfvBackend.h - In-tree BFV execution backend -----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default ExecutorBackend ("bfv"): real encrypted execution on the
/// in-tree RNS BFV runtime, wrapping backend/BfvExecutor bit-for-bit. Each
/// session owns a context (or reuses a prior session's via
/// SessionSpec::Reuse), fresh keys seeded from ExecutionSeed, and Galois
/// keys for exactly the program set's rotations.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_BFVBACKEND_H
#define PORCUPINE_BACKEND_BFVBACKEND_H

#include "backend/ExecutorBackend.h"

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
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_BACKEND_BFVBACKEND_H
