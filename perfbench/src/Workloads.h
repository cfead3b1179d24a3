//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload runs for \p Seconds and fills \p R. With \p Traced set it
/// also records spans and the per-layer metrics that come from them. A
/// traced run of one workload runs the other one as well, briefly
/// (Primary false: one set-up, a fixed small amount of work, \p Seconds
/// ignored), and `serve`, so that every traced run yields every per-layer
/// metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <map>
#include <string>

namespace perfbench {

/// Per-opcode medians in microseconds at one ring dimension, keyed like
/// the metric suffixes ("add", "mul_ct_ct", ...).
using OpTimes = std::map<std::string, double>;

void runCompile(const Options &O, Report &R, double Seconds, bool Traced,
                bool Primary);
void runCall(const Options &O, Report &R, double Seconds, bool Traced,
             bool Primary);
/// Traced runs only: \p Seconds of open-loop arrivals into a Server.
void runServe(const Options &O, Report &R, double Seconds);

/// Times the bfv and math entry points at N=4096 and N=8192 and records
/// the bfv.n<N>.* and math.n<N>.* metrics. Returns the medians by N.
std::map<size_t, OpTimes> runMicrobench(Report &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
