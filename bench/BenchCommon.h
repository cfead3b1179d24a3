//===- bench/BenchCommon.h - Shared benchmark scaffolding -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: context
/// selection, timed encrypted kernel runs, and fixed-width table printing
/// that mirrors the paper's layout.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BENCH_BENCHCOMMON_H
#define PORCUPINE_BENCH_BENCHCOMMON_H

#include "backend/BfvExecutor.h"
#include "backend/ExecutorBackend.h"
#include "backend/ParameterSelector.h"
#include "quill/Analysis.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace porcupine {
namespace bench {

/// Builds the evaluation context for a pair of kernel programs: the
/// parameters selectParameters() picks for the two together on "bfv",
/// under the table's plaintext modulus.
inline BfvContext contextFor(const quill::Program &A,
                             const quill::Program &B) {
  const backend::ExecutorBackend &Bfv =
      *backend::BackendRegistry::builtin().find("bfv");
  return BfvContext(
      selectParameters({&A, &B}, Bfv, BfvParams().PlainModulus).Params);
}

/// Measures the mean wall-clock latency (microseconds) of running \p P on
/// \p Exec over \p Repeats runs (one warmup run excluded).
inline double timeEncryptedRuns(const BfvExecutor &Exec,
                                const quill::Program &P,
                                const std::vector<Ciphertext> &Inputs,
                                int Repeats) {
  Exec.run(P, Inputs); // Warmup.
  Stopwatch W;
  for (int I = 0; I < Repeats; ++I)
    Exec.run(P, Inputs);
  return W.micros() / Repeats;
}

/// Noise-robust A/B comparison: alternates single runs of \p A and \p B so
/// slow environment drift (container CPU shares, frequency scaling) hits
/// both variants equally, and reports per-variant medians in microseconds.
inline std::pair<double, double>
timeInterleaved(const BfvExecutor &Exec, const quill::Program &A,
                const quill::Program &B,
                const std::vector<Ciphertext> &Inputs, int Repeats) {
  Exec.run(A, Inputs); // Warmups.
  Exec.run(B, Inputs);
  std::vector<double> TimesA, TimesB;
  TimesA.reserve(Repeats);
  TimesB.reserve(Repeats);
  for (int I = 0; I < Repeats; ++I) {
    Stopwatch WA;
    Exec.run(A, Inputs);
    TimesA.push_back(WA.micros());
    Stopwatch WB;
    Exec.run(B, Inputs);
    TimesB.push_back(WB.micros());
  }
  auto Median = [](std::vector<double> &V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  return {Median(TimesA), Median(TimesB)};
}

/// Backend-interface overload: times \p P through an abstract execution
/// session, so figure benches run unchanged on any registered backend.
inline double timeEncryptedRuns(const backend::Executor &Exec,
                                const quill::Program &P,
                                const std::vector<backend::Value> &Inputs,
                                int Repeats) {
  Exec.run(P, Inputs); // Warmup.
  Stopwatch W;
  for (int I = 0; I < Repeats; ++I)
    Exec.run(P, Inputs);
  return W.micros() / Repeats;
}

/// Prints a horizontal rule sized for \p Width columns of 12 chars.
inline void printRule(int Width) {
  for (int I = 0; I < Width; ++I)
    std::printf("------------");
  std::printf("\n");
}

/// Parses a "--repeats N" style flag; returns \p Default when absent.
inline int argInt(int Argc, char **Argv, const std::string &Flag,
                  int Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (Flag == Argv[I])
      return std::atoi(Argv[I + 1]);
  return Default;
}

/// True when \p Flag is present.
inline bool argFlag(int Argc, char **Argv, const std::string &Flag) {
  for (int I = 1; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

} // namespace bench
} // namespace porcupine

#endif // PORCUPINE_BENCH_BENCHCOMMON_H
