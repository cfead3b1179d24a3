//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run options, the metric report,
/// exact percentiles from raw samples, the output check against the
/// kernel specification, and the workload constants recorded in
/// BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "spec/KernelSpec.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Workload constants (mirrored in BENCHMARK.json and README.md)
//===----------------------------------------------------------------------===//

/// Plaintext modulus of every bundled kernel.
constexpr uint64_t PlainModulus = 65537;

/// `compile`: the paper kernels whose CEGIS synthesis finishes in seconds.
const std::vector<std::string> &cegisKernels();
/// `compile`: the `.porc` workloads, compiled from source with eqsat on.
const std::vector<std::string> &porcKernels();
/// Synthesis worker threads for `compile`.
constexpr int SynthThreads = 4;
/// `compile`: kernels whose eqsat program matches the spec at the program
/// width but not at the ciphertext row width (quill/Passes.h: eqsat
/// rewrites width-W cyclically). Their row-width mismatches are counted in
/// quill.row_mismatches; on any other kernel one is a failed operation.
/// Remove a kernel here once the compiler fixes it.
constexpr const char *RowWidthKnownBad[] = {"Perceptron 8-4-1",
                                            "Group-By Sum"};

/// `call`: round-robin kernels, one request in flight.
const std::vector<std::string> &callKernels();

/// `serve` (traced runs only): offered Poisson rate, shards, tenants, mix.
constexpr double ServeRatePerSecond = 400.0;
constexpr unsigned ServeShards = 2;
const std::vector<std::string> &serveTenants();
struct MixEntry {
  const char *Kernel;
  double Share;
};
const std::vector<MixEntry> &serveMix();

//===----------------------------------------------------------------------===//
// Run options and report
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory the traced run writes its trace files into.
  std::string OutDir = ".";
};

/// Everything one run reports. Metrics are keyed by name; the runner
/// prints the ones BENCHMARK.json lists for the run's mode.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when an output differed from the reference, the failure
  /// accounting missed the self-test's corrupted output, or a
  /// deterministic cross-check disagreed.
  bool Correct = true;
  std::map<std::string, std::pair<double, std::string>> Metrics;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fail(const std::string &Why);
  void incorrect(const std::string &Why);
};

/// Seconds on the steady clock since \p Start.
inline double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Peak resident set size of this process, MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Statistics (exact, from raw samples)
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile: the smallest sample with at least a \p Q share
/// of the samples at or below it.
double quantile(std::vector<double> Samples, double Q);
inline double median(std::vector<double> Samples) {
  return quantile(std::move(Samples), 0.5);
}
double geomean(const std::vector<double> &Values);

/// The highest of a few standard percentile levels (p99.9 down to p50)
/// that has at least ten samples above it, for a sample count of \p N.
double tailLevel(size_t N);

/// "n=65 p50=22.41 p85=26.90" for the stderr tables.
std::string describe(const std::vector<double> &Samples, double Level);

//===----------------------------------------------------------------------===//
// Kernels and the output check
//===----------------------------------------------------------------------===//

/// Metric-name slug of a kernel name: "Conv2D 5x5" -> "conv2d-5x5".
std::string slug(const std::string &KernelName);

/// The registry's specification of \p KernelName (aborts on unknown
/// names; every name here is a workload constant).
const porcupine::KernelSpec &specOf(const std::string &KernelName);

/// Compares outputs against KernelSpec::evalConcrete on the output-mask
/// slots; each mismatch counts as a failed operation and makes the run
/// incorrect.
class OutputCheck {
public:
  explicit OutputCheck(Report &R) : R(R) {}
  /// True when \p Outputs matches the reference on every masked slot.
  bool check(const porcupine::KernelSpec &Spec,
             const std::vector<std::vector<uint64_t>> &Inputs,
             const std::vector<uint64_t> &Outputs, const std::string &What);
  uint64_t mismatches() const { return Mismatches; }

private:
  Report &R;
  uint64_t Mismatches = 0;
};

/// Corrupts one masked slot of a correct output and confirms that a fresh
/// OutputCheck counts it as exactly one failure; marks \p R incorrect if
/// it does not (the check itself would then be broken).
void selfTest(Report &R, const porcupine::KernelSpec &Spec,
              const std::vector<std::vector<uint64_t>> &Inputs,
              const std::vector<uint64_t> &Outputs);

/// The bundled Baseline's cost under the "bfv" backend's latency table.
double baselineCost(const std::string &KernelName);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
