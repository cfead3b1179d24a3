//===- driver/Fingerprint.cpp - Canonical compile-option keys -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompileOptions::canonicalKey() renders every semantically relevant
/// option as `name=value;` pairs in a fixed alphabetical order. The
/// rendering must be *injective*: two options objects map to the same key
/// exactly when every covered field is equal, so the Engine's compile
/// cache can key on it without false sharing. Free-form strings (the
/// codegen function name) are therefore JSON-quoted, and doubles are
/// rendered with %.17g (round-trip exact for IEEE doubles).
///
/// Extending CompileOptions? Add the new field here in alphabetical
/// position, or identical compiles under different values of that field
/// will incorrectly share a cache entry. Two deliberate exclusions follow
/// one rule — a knob that provably cannot change the compiled program
/// stays out of the key:
///   * Synthesis.Threads: the portfolio search's deterministic tie-break
///     makes the synthesized program byte-identical for every thread
///     count, so keying on it would only split the cache across
///     performance-equivalent entries (and invalidate artifacts whenever
///     a deployment retunes its --jobs);
///   * EqSat.TimeBudgetMs while disabled (<= 0): saturation is then
///     iteration/node-bounded and clock-free, so the extracted program is
///     identical across runs and hosts. An *armed* budget (> 0) can stop
///     saturation mid-way and change the result, so positive values ARE
///     keyed (the field renders exactly when positive — injective).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "support/Json.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::driver;

namespace {

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void addField(std::string &Out, const char *Name, const std::string &Value) {
  Out += Name;
  Out += '=';
  Out += Value;
  Out += ';';
}

void addField(std::string &Out, const char *Name, double V) {
  addField(Out, Name, fmtDouble(V));
}

void addField(std::string &Out, const char *Name, bool V) {
  addField(Out, Name, std::string(V ? "1" : "0"));
}

void addField(std::string &Out, const char *Name, int V) {
  addField(Out, Name, std::to_string(V));
}

void addField(std::string &Out, const char *Name, uint64_t V) {
  addField(Out, Name, std::to_string(V));
}

uint64_t fnv1a(const std::string &S, uint64_t Hash = 0xcbf29ce484222325ull) {
  for (char C : S) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

std::string CompileOptions::canonicalKey() const {
  std::string K;
  K.reserve(512);
  // JSON-quoted like every free-form string: a hostile backend name must
  // not be able to forge neighboring fields. Keying the backend is what
  // guarantees the Engine cache and artifacts never serve a kernel
  // compiled for one backend to a request for another.
  addField(K, "backend", json::quote(Backend));
  addField(K, "codegen.comments", Codegen.EmitComments);
  // JSON-quoted: a function name containing ';' or '=' must not be able to
  // forge neighboring fields.
  addField(K, "codegen.function", json::quote(Codegen.FunctionName));
  addField(K, "eqsat.max_iterations", EqSat.MaxIterations);
  addField(K, "eqsat.max_nodes", EqSat.MaxNodes);
  // The eqsat wall-clock budget is keyed only when armed: disabled
  // (<= 0), saturation is iteration-bounded and deterministic, so the
  // field cannot change the compiled program. Injective regardless — the
  // field name appears exactly when the value is positive.
  if (EqSat.TimeBudgetMs > 0.0)
    addField(K, "eqsat.time_budget_ms", EqSat.TimeBudgetMs);
  addField(K, "execution.seed", ExecutionSeed);
  addField(K, "explicit_rotations", ExplicitRotations);
  addField(K, "explicit_rotations.max_components",
           ExplicitRotationMaxComponents);
  addField(K, "fallback_to_bundled", FallbackToBundled);
  // Frontend sub-expression synthesis can change the compiled program
  // (CEGIS may find a cheaper sequence, or time out and fall back), so
  // all three knobs are keyed — like Synthesis.*, even when the feature
  // is off, for a stable field set.
  addField(K, "frontend.subkernel_max_components", SubkernelMaxComponents);
  addField(K, "frontend.subkernel_timeout_seconds", SubkernelTimeoutSeconds);
  addField(K, "frontend.synth_subkernels", SynthSubkernels);
  addField(K, "latency.add_ct_ct", Synthesis.Latency.AddCtCt);
  addField(K, "latency.add_ct_pt", Synthesis.Latency.AddCtPt);
  addField(K, "latency.mul_ct_ct", Synthesis.Latency.MulCtCt);
  addField(K, "latency.mul_ct_pt", Synthesis.Latency.MulCtPt);
  addField(K, "latency.relin_ct", Synthesis.Latency.RelinCt);
  addField(K, "latency.rot_ct", Synthesis.Latency.RotCt);
  addField(K, "latency.sub_ct_ct", Synthesis.Latency.SubCtCt);
  addField(K, "latency.sub_ct_pt", Synthesis.Latency.SubCtPt);
  // JSON-quoted like the function name: the pipeline is free-form text.
  addField(K, "pipeline", json::quote(Pipeline));
  addField(K, "run_synthesis", RunSynthesis);
  addField(K, "synthesis.max_components", Synthesis.MaxComponents);
  addField(K, "synthesis.min_components", Synthesis.MinComponents);
  addField(K, "synthesis.optimize", Synthesis.Optimize);
  addField(K, "synthesis.plain_modulus", Synthesis.PlainModulus);
  addField(K, "synthesis.seed", Synthesis.Seed);
  addField(K, "synthesis.timeout_seconds", Synthesis.TimeoutSeconds);
  return K;
}

std::string CompileOptions::fingerprint() const {
  return hex16(fnv1a(canonicalKey()));
}

std::string driver::compileFingerprint(const std::string &KernelName,
                                       const CompileOptions &Opts) {
  // Hash the name first with a separator FNV never produces from field
  // text, then continue over the canonical key, so ("ab", opts) and
  // ("a", "b"+opts) cannot collide by construction of the stream.
  uint64_t H = fnv1a(KernelName);
  H ^= 0x1f;
  H *= 0x100000001b3ull;
  return hex16(fnv1a(Opts.canonicalKey(), H));
}
