//===- driver/Artifact.h - Persistent kernel artifacts ----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent form of a compiled kernel: one versioned JSON document
/// wrapping the textual `.quill` program plus everything a serving process
/// needs to execute it without re-synthesizing — kernel name, compile
/// fingerprint, the canonical options key it was compiled under, execution
/// parameters (plaintext modulus, seed, the latency table it was priced
/// with), selected BFV parameters, cost figures, the emitted SEAL code, and
/// pipeline notes.
///
/// Artifacts exist so Engines can warm-start from disk (`porcc compile
/// --emit-artifact`, then `porcc run --artifact` / Engine::loadArtifact()
/// in a server). Loading re-parses and re-validates the embedded program —
/// a corrupted or hand-edited artifact fails with a diagnostic, never
/// executes garbage. The recorded "params", "latency_us" and "cost" are
/// informational: like the other analyses, a loaded kernel's parameters
/// are selected again from its program on the loading Engine's backend,
/// and its estimate is priced again under the recorded latency table.
///
/// Version history:
///   1 — initial format. The "latency" object (the compile's latency
///       table) is optional: an artifact without it loads with the
///       default table.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_DRIVER_ARTIFACT_H
#define PORCUPINE_DRIVER_ARTIFACT_H

#include "driver/Driver.h"

#include <string>
#include <vector>

namespace porcupine {
namespace driver {

class CompiledKernel;

/// The artifact format version this build writes (and the newest it reads).
constexpr int ArtifactVersion = 1;

/// A parsed artifact, validated (program parses and passes validate();
/// version supported) but not yet turned into a CompiledKernel.
struct ArtifactData {
  int Version = 0;
  std::string Kernel;
  /// compileFingerprint() recorded at save time.
  std::string Fingerprint;
  /// CompileOptions::canonicalKey() recorded at save time; the Engine
  /// caches the loaded kernel under it so the matching get() is a hit.
  std::string OptionsKey;
  uint64_t PlainModulus = 65537;
  uint64_t ExecutionSeed = 1;
  bool FromSynthesis = false;
  quill::Program Program;
  /// The latency table the kernel was compiled with; a loaded kernel
  /// executes (and the dry-run backend charges) under it.
  quill::LatencyTable Latency;
  std::string SealCode;
  /// Rendered pipeline notes from the original compile (informational).
  std::vector<std::string> Notes;
};

/// Renders \p R (compiled under \p Opts) as the artifact JSON document.
std::string renderArtifact(const CompileResult &R, const CompileOptions &Opts);

/// Writes renderArtifact() to \p Path. I/O failure returns an error Status.
Status saveArtifact(const CompileResult &R, const CompileOptions &Opts,
                    const std::string &Path);

/// Convenience overload for Engine handles.
Status saveArtifact(const CompiledKernel &K, const std::string &Path);

/// Parses artifact JSON text. Unknown fields are ignored (forward
/// compatibility); missing required fields, unsupported versions, and
/// programs that fail validation are errors.
Expected<ArtifactData> parseArtifact(const std::string &JsonText);

/// Reads and parses the artifact at \p Path.
Expected<ArtifactData> loadArtifactFile(const std::string &Path);

} // namespace driver
} // namespace porcupine

#endif // PORCUPINE_DRIVER_ARTIFACT_H
