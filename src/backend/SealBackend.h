//===- backend/SealBackend.h - Microsoft SEAL execution backend -*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "seal" ExecutorBackend: executes Quill programs on real Microsoft
/// SEAL (the library the paper's toolchain targets), closing the loop the
/// SealCodeGen emitter only gestures at. Compiled only when CMake finds
/// SEAL (-DPORCUPINE_WITH_SEAL=ON); without it this header still parses but
/// declares nothing, and the registry simply does not list "seal".
///
/// Semantics mirror the in-tree runtime — batching row 0 carries the data,
/// rotate_rows implements RotCt, implicit-relin programs relinearize after
/// every ct*ct multiply — so the cross-backend matrix test can demand
/// byte-equal decrypted outputs against both "bfv" and "dryrun".
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_SEALBACKEND_H
#define PORCUPINE_BACKEND_SEALBACKEND_H

#ifdef PORCUPINE_WITH_SEAL

#include "backend/ExecutorBackend.h"

#include <utility>

namespace porcupine {
namespace backend {

struct SealState;

class SealBackend : public ExecutorBackend {
public:
  std::string name() const override { return "seal"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{};
  }
  quill::NoiseParams noiseParams(const BfvParams &Params) const override;
  Expected<std::unique_ptr<Executor>>
  createExecutor(const SessionSpec &Spec) const override;

private:
  /// One SEALContext per (N, t), shared by every session built on it.
  mutable SharedPerParams<std::pair<size_t, uint64_t>, SealState> Contexts;
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_WITH_SEAL

#endif // PORCUPINE_BACKEND_SEALBACKEND_H
