//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "backend/ExecutorBackend.h"
#include "kernels/KernelRegistry.h"
#include "quill/CostModel.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>

using namespace perfbench;
using namespace porcupine;

const std::vector<std::string> &perfbench::cegisKernels() {
  static const std::vector<std::string> K = {
      "Box Blur", "Linear Regression", "Polynomial Regression",
      "Hamming Distance", "Gx", "Gy", "Dot Product"};
  return K;
}

const std::vector<std::string> &perfbench::porcKernels() {
  static const std::vector<std::string> K = {"Conv2D 5x5", "Perceptron 8-4-1",
                                             "Group-By Sum"};
  return K;
}

const std::vector<std::string> &perfbench::callKernels() {
  static const std::vector<std::string> K = {
      "Box Blur", "Dot Product", "Polynomial Regression", "Conv2D 5x5",
      "Perceptron 8-4-1"};
  return K;
}

const std::vector<std::string> &perfbench::serveTenants() {
  // tenantShard() places a and c on one shard, b and d on the other.
  static const std::vector<std::string> T = {"tenant-a", "tenant-b",
                                             "tenant-c", "tenant-d"};
  return T;
}

const std::vector<MixEntry> &perfbench::serveMix() {
  static const std::vector<MixEntry> M = {
      {"Dot Product", 0.75}, {"Gx", 0.20}, {"Group-By Sum", 0.05}};
  return M;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: failed: %s\n", Why.c_str());
}

void Report::incorrect(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", Why.c_str());
}

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Q * static_cast<double>(Samples.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double perfbench::tailLevel(size_t N) {
  for (double Level : {0.999, 0.99, 0.95, 0.9, 0.8, 0.75})
    if (static_cast<double>(N) * (1 - Level) >= 10)
      return Level;
  return 0.5;
}

std::string perfbench::describe(const std::vector<double> &Samples,
                                double Level) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "n=%zu p50=%.3f p%g=%.3f", Samples.size(),
                median(Samples), Level * 100, quantile(Samples, Level));
  return Buf;
}

std::string perfbench::slug(const std::string &KernelName) {
  std::string Out;
  for (char C : KernelName) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Out += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    else if (!Out.empty() && Out.back() != '-')
      Out += '-';
  }
  return Out;
}

const KernelSpec &perfbench::specOf(const std::string &KernelName) {
  auto B = kernels::KernelRegistry::builtin().find(KernelName);
  if (!B) {
    std::fprintf(stderr, "perfbench: unknown kernel '%s'\n",
                 KernelName.c_str());
    std::exit(2);
  }
  return (*B)->Spec;
}

bool OutputCheck::check(const KernelSpec &Spec,
                        const std::vector<std::vector<uint64_t>> &Inputs,
                        const std::vector<uint64_t> &Outputs,
                        const std::string &What) {
  std::vector<uint64_t> Want = Spec.evalConcrete(Inputs, PlainModulus);
  bool Ok = Outputs.size() >= Spec.vectorSize();
  for (size_t I = 0; Ok && I < Spec.vectorSize(); ++I)
    if (Spec.outputSlotMatters(I) && Outputs[I] != Want[I])
      Ok = false;
  if (!Ok) {
    ++Mismatches;
    R.Correct = false;
    R.fail(What + ": output differs from the reference");
  }
  return Ok;
}

void perfbench::selfTest(Report &R, const KernelSpec &Spec,
                         const std::vector<std::vector<uint64_t>> &Inputs,
                         const std::vector<uint64_t> &Outputs) {
  std::vector<uint64_t> Corrupt = Outputs;
  for (size_t I = 0; I < Spec.vectorSize(); ++I) {
    if (Spec.outputSlotMatters(I)) {
      Corrupt[I] = (Corrupt[I] + 1) % PlainModulus;
      break;
    }
  }
  Report Scratch;
  OutputCheck Check(Scratch);
  bool Caught = !Check.check(Spec, Inputs, Corrupt,
                             "self-test, corrupted on purpose") &&
                Check.mismatches() == 1 && Scratch.Failed == 1;
  std::fprintf(stderr,
               "perfbench: self-test: corrupted one output slot of '%s': "
               "%s\n",
               Spec.name().c_str(),
               Caught ? "counted as 1 failure" : "NOT COUNTED");
  if (!Caught)
    R.incorrect("the output check missed a corrupted output");
}

double perfbench::baselineCost(const std::string &KernelName) {
  auto B = kernels::KernelRegistry::builtin().find(KernelName);
  const backend::ExecutorBackend *Bfv =
      backend::BackendRegistry::builtin().find("bfv");
  if (!B || !Bfv)
    return 0;
  return quill::CostModel(Bfv->latencyTable()).cost((*B)->Baseline);
}
