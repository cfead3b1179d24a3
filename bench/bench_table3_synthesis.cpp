//===- bench/bench_table3_synthesis.cpp - Paper Table 3 -------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces paper Table 3: synthesis time and examples used per kernel -
/// number of CEGIS examples, time to the initial solution, total time
/// including the optimization phase, and initial/final cost. Absolute times
/// differ from the paper (enumerative C++ CEGIS vs Rosette/Boolector); the
/// qualitative claims are the reproduction targets: initial solutions come
/// fast, optimization dominates total time, Roberts cross is the hardest,
/// and single-output kernels need the most examples.
///
/// Usage: bench_table3_synthesis [--timeout SECS] [--kernel NAME] [--fast]
///                               [--jobs N] [--compare-threads N]
///
/// --jobs N sets the synthesis portfolio thread count for the table run
/// (0 = one per hardware thread, 1 = sequential; the synthesized programs
/// are identical either way).
///
/// --compare-threads N switches to the parallel-speedup benchmark: every
/// fast-synthesizing kernel is synthesized twice — once sequential, once
/// with N portfolio threads — under the default latency table (so the
/// workload is machine-independent), and a machine-readable JSON record
/// (per-kernel wall times, speedups, byte-identity of the two programs,
/// and the median speedup) is printed to stdout; exit status 1 flags a
/// determinism violation (sequential and parallel programs differing).
/// synth_parallel_test and synth_test check the same byte-identity for
/// these seven kernels on every test run.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "backend/LatencyProfiler.h"
#include "kernels/Kernels.h"
#include "spec/Equivalence.h"
#include "support/Json.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace porcupine;
using namespace porcupine::bench;
using namespace porcupine::kernels;

namespace {

struct PaperRow {
  int Examples;
  double InitialTime, TotalTime;
  double InitialCost, FinalCost;
};

/// The parallel-speedup mode behind --compare-threads. Runs each
/// fast-synthesizing kernel sequentially and with \p Threads workers and
/// reports wall-clock speedups plus program byte-identity as JSON.
int runCompare(int Threads, double Timeout, const char *Only) {
  struct Row {
    std::string Name;
    double T1Ms, TNMs, Speedup;
    bool Identical, Found;
  };
  // The kernels whose full synthesis (optimization phase included)
  // finishes in seconds — the ones a CI runner can afford to synthesize
  // twice. l2 distance and Roberts cross take minutes-to-hours and are
  // deliberately excluded.
  std::vector<KernelBundle> Set;
  Set.push_back(boxBlurKernel());
  Set.push_back(linearRegressionKernel());
  Set.push_back(polyRegressionKernel());
  Set.push_back(hammingDistanceKernel());
  Set.push_back(gxKernel());
  Set.push_back(gyKernel());
  Set.push_back(dotProductKernel());

  std::fprintf(stderr,
               "synthesis speedup: 1 thread vs %d threads (timeout %.0fs)\n",
               Threads, Timeout);
  std::vector<Row> Rows;
  bool AllIdentical = true;
  for (const KernelBundle &B : Set) {
    if (Only && B.Spec.name().find(Only) == std::string::npos)
      continue;
    synth::SynthesisOptions Opts;
    Opts.TimeoutSeconds = Timeout;
    Opts.MaxComponents = 8;
    Opts.Seed = 7;

    Opts.Threads = 1;
    auto R1 = synth::synthesize(B.Spec, B.Sketch, Opts);
    Opts.Threads = Threads;
    auto RN = synth::synthesize(B.Spec, B.Sketch, Opts);

    Row R;
    R.Name = B.Spec.name();
    R.T1Ms = R1.Stats.TotalTimeSeconds * 1000.0;
    R.TNMs = RN.Stats.TotalTimeSeconds * 1000.0;
    R.Speedup = R.TNMs > 0.0 ? R.T1Ms / R.TNMs : 0.0;
    R.Found = R1.Found && RN.Found;
    // Byte-identity is only claimed (and only violated) when both runs
    // completed: a timeout on one side is a loaded-machine artifact the
    // design explicitly permits to differ, not a determinism bug. Such
    // rows report found=false and drop out of the median.
    bool TimeoutMismatch = R1.Found != RN.Found;
    R.Identical = !R.Found || quill::printProgram(R1.Prog) ==
                                  quill::printProgram(RN.Prog);
    AllIdentical = AllIdentical && R.Identical;
    Rows.push_back(R);
    std::fprintf(stderr, "  %-22s %8.1f ms -> %8.1f ms  %.2fx%s%s\n",
                 R.Name.c_str(), R.T1Ms, R.TNMs, R.Speedup,
                 R.Identical ? "" : "  !!PROGRAMS DIFFER",
                 TimeoutMismatch ? "  (timeout mismatch; not comparable)"
                                 : "");
  }

  // Median over the kernels where parallelism is measurable: a synthesis
  // that finishes in a few milliseconds is dominated by pool setup, so
  // its "speedup" is noise. Sub-50ms kernels stay in the per-kernel JSON
  // but are excluded from the aggregate (unless nothing else qualifies).
  constexpr double MinMeasurableMs = 50.0;
  std::vector<double> Speedups;
  for (const Row &R : Rows)
    if (R.Found && R.T1Ms >= MinMeasurableMs)
      Speedups.push_back(R.Speedup);
  if (Speedups.empty())
    for (const Row &R : Rows)
      if (R.Found)
        Speedups.push_back(R.Speedup);
  size_t MedianOver = Speedups.size();
  double Median = 0.0;
  if (!Speedups.empty()) {
    std::sort(Speedups.begin(), Speedups.end());
    size_t N = Speedups.size();
    Median = N % 2 ? Speedups[N / 2]
                   : (Speedups[N / 2 - 1] + Speedups[N / 2]) / 2.0;
  }

  std::printf("{\n");
  std::printf("  \"schema\": \"porcupine-synthesis-speedup/1\",\n");
  std::printf("  \"synthesis_threads\": %d,\n", Threads);
  std::printf("  \"median_speedup\": %.3f,\n", Median);
  std::printf("  \"median_over_kernels\": %zu,\n", MedianOver);
  std::printf("  \"all_identical\": %s,\n", AllIdentical ? "true" : "false");
  std::printf("  \"kernels\": [\n");
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::printf("    {\"name\": %s, \"found\": %s, \"synthesis_ms\": %.3f, "
                "\"synthesis_ms_1thread\": %.3f, \"speedup\": %.3f, "
                "\"identical\": %s}%s\n",
                json::quote(R.Name).c_str(), R.Found ? "true" : "false",
                R.TNMs, R.T1Ms, R.Speedup, R.Identical ? "true" : "false",
                I + 1 < Rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return AllIdentical ? 0 : 1;
}

void runKernel(const KernelBundle &B, const PaperRow &Paper, double Timeout,
               const quill::LatencyTable &Latency, int Jobs) {
  synth::SynthesisOptions Opts;
  Opts.TimeoutSeconds = Timeout;
  Opts.MaxComponents = 8;
  Opts.Latency = Latency;
  Opts.Seed = 7;
  Opts.Threads = Jobs;

  auto Result = synth::synthesize(B.Spec, B.Sketch, Opts);
  if (!Result.Found) {
    std::printf("%-22s  synthesis failed (timeout=%s)\n",
                B.Spec.name().c_str(), Result.Stats.TimedOut ? "yes" : "no");
    return;
  }

  // Sanity: the result must be verified equivalent.
  Rng R(99);
  bool Ok = verifyProgram(Result.Prog, B.Spec, 65537, R).Equivalent;

  std::printf("%-22s %4d %9.2f %9.2f %10.0f %10.0f %6d %5s%s  "
              "(paper: %d ex, %.2fs/%.2fs, cost %.0f->%.0f)\n",
              B.Spec.name().c_str(), Result.Stats.ExamplesUsed,
              Result.Stats.InitialTimeSeconds, Result.Stats.TotalTimeSeconds,
              Result.Stats.InitialCost, Result.Stats.FinalCost,
              Result.Stats.LoweredInstructions,
              Result.Stats.ProvenOptimal
                  ? "opt"
                  : (Result.Stats.TimedOut ? "t/o" : "-"),
              Ok ? "" : "  !!UNSOUND", Paper.Examples, Paper.InitialTime,
              Paper.TotalTime, Paper.InitialCost, Paper.FinalCost);
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Fast = argFlag(Argc, Argv, "--fast");
  double Timeout = argInt(Argc, Argv, "--timeout", Fast ? 30 : 240);
  int Jobs = argInt(Argc, Argv, "--jobs", 0);
  int CompareThreads = argInt(Argc, Argv, "--compare-threads", 0);
  const char *Only = nullptr;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--kernel") == 0)
      Only = Argv[I + 1];

  if (CompareThreads > 0)
    return runCompare(CompareThreads, Timeout, Only);

  std::printf("Table 3: synthesis time and examples (timeout %.0fs, "
              "jobs %d)\n",
              Timeout, Jobs);
  std::printf("Cost model: profiling the bundled BFV evaluator...\n");
  Rng R(5);
  BfvContext ProfileCtx = BfvContext::forMultDepth(1);
  quill::LatencyTable Latency = profileLatencies(ProfileCtx, R, Fast ? 1 : 3);
  std::printf("  %s\n\n", Latency.toString().c_str());

  std::printf("%-22s %4s %9s %9s %10s %10s %6s %5s\n", "Kernel", "ex",
              "init(s)", "total(s)", "init-cost", "final-cost", "instrs",
              "flag");
  printRule(7);

  struct Entry {
    KernelBundle B;
    PaperRow Paper;
  };
  std::vector<Entry> Entries;
  Entries.push_back({boxBlurKernel(), {1, 1.99, 9.88, 1182, 592}});
  Entries.push_back({dotProductKernel(), {2, 1.27, 15.16, 1466, 1466}});
  Entries.push_back({hammingDistanceKernel(), {3, 0.87, 2.24, 1270, 680}});
  Entries.push_back({l2DistanceKernel(), {2, 27.57, 114.28, 1436, 1436}});
  Entries.push_back({linearRegressionKernel(), {2, 0.50, 0.69, 878, 878}});
  Entries.push_back({polyRegressionKernel(), {2, 24.59, 47.88, 2631, 2631}});
  Entries.push_back({gxKernel(), {1, 14.87, 70.08, 1357, 975}});
  Entries.push_back({gyKernel(), {1, 9.74, 49.52, 1773, 767}});
  Entries.push_back({robertsCrossKernel(), {1, 212.52, 609.64, 2692, 2692}});

  for (const Entry &E : Entries) {
    if (Only && E.B.Spec.name().find(Only) == std::string::npos)
      continue;
    runKernel(E.B, E.Paper, Timeout, Latency, Jobs);
  }

  std::printf("\nflags: opt = optimizer exhausted the sketch (proven "
              "minimal-cost); t/o = timed out with best-so-far\n");
  return 0;
}
