//===- backend/DryRunBackend.h - Keyless cost-charging backend --*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "dryrun" ExecutorBackend: plaintext Quill semantics at full
/// batching-row width, no keys, no encryption — but every run charges the
/// cost-model latency the program would have cost on the real runtime,
/// priced with the compile's table (SessionSpec::Latency), to
/// Executor::chargedLatencyUs. This gives CI and porcc a fast execution
/// mode that still exercises the whole driver/Engine/Server stack, and the
/// second half of every cross-backend differential test: dry-run outputs
/// must decrypt byte-equal to BFV's, including rotations that cross the
/// program's vector-size boundary into the zero-padded rest of the row.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_DRYRUNBACKEND_H
#define PORCUPINE_BACKEND_DRYRUNBACKEND_H

#include "backend/ExecutorBackend.h"

namespace porcupine {
namespace backend {

class DryRunBackend : public ExecutorBackend {
public:
  std::string name() const override { return "dryrun"; }
  /// Not encrypted: no keys, so a runtime instantiated for one program
  /// set can run any program.
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{/*Encrypted=*/false};
  }
  Expected<std::unique_ptr<Executor>>
  createExecutor(const SessionSpec &Spec) const override;
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_BACKEND_DRYRUNBACKEND_H
