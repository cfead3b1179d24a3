//===- perfbench/src/main.cpp - Benchmark driver binary -------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage: perfbench --workload compile|call --seed N --seconds S
///                  --trace 0|1 [--out-dir DIR]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics": {name: {"value",
/// "unit"}}} with every metric the run measured. perfbench/run.py builds
/// this binary and keeps the metrics BENCHMARK.json lists for the mode.
///
/// With --trace 1 the named workload runs traced for S seconds, then the
/// other one and `serve` run traced briefly, so every per-layer metric is
/// measured; the spans go to DIR/<workload>-seed<N>.trace.json (Chrome
/// trace-event format) and a self-time table to
/// DIR/<workload>-seed<N>.selftime.txt.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// Arrival window of `serve` in a traced run.
constexpr double ServeSeconds = 8;

using RunFn = void (*)(const Options &, Report &, double, bool, bool);

struct WorkloadEntry {
  const char *Name;
  RunFn Run;
};

const WorkloadEntry Workloads[] = {{"compile", runCompile}, {"call", runCall}};

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload compile|call "
                       "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else if (Flag == "--out-dir")
      O.OutDir = Val;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  const WorkloadEntry *Primary = nullptr;
  for (const WorkloadEntry &W : Workloads)
    if (O.Workload == W.Name)
      Primary = &W;
  if (!Primary || !(O.Seconds > 0))
    return usage();

  Report R;
  if (!O.Trace) {
    Primary->Run(O, R, O.Seconds, false, true);
  } else {
    Tracer::instance().setEnabled(true);
    Primary->Run(O, R, O.Seconds, true, true);
    for (const WorkloadEntry &W : Workloads)
      if (&W != Primary)
        W.Run(O, R, O.Seconds, true, false);
    runServe(O, R, ServeSeconds);
    std::string Base = O.OutDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed);
    if (!Tracer::instance().writeChromeJson(Base + ".trace.json"))
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                   Base.c_str());
    std::string Table = Tracer::instance().selfTimeTable();
    if (std::FILE *F = std::fopen((Base + ".selftime.txt").c_str(), "w")) {
      std::fputs(Table.c_str(), F);
      std::fclose(F);
    }
    std::fprintf(stderr, "\nself time by layer (traced run)\n%s\ntrace: %s\n",
                 Table.c_str(), (Base + ".trace.json").c_str());
  }
  R.set("peak_rss_mb", peakRssMb(), "MiB");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &KV : R.Metrics) {
    if (!std::isfinite(KV.second.first))
      continue; // Left out, so the runner reports the metric as missing.
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", First ? "" : ", ",
                porcupine::json::quote(KV.first).c_str(), KV.second.first,
                porcupine::json::quote(KV.second.second).c_str());
    First = false;
  }
  std::printf("}}\n");
  return 0;
}
