//===- perfbench/src/CallWorkload.cpp - The `call` workload ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop with one client thread and one request in flight: an
/// Engine serving bundled programs (default pipeline, "bfv", one runtime
/// per kernel) answers CompiledKernel::execute round-robin over five
/// kernels that split the bfv and math work differently — fixed per-call
/// overhead (Box Blur), multiply and relin at N=8192 without rotations
/// (Polynomial Regression), many rotations (Conv2D 5x5), depth 4 at N=8192
/// (Perceptron 8-4-1) — so a change to one opcode has a kernel on which it
/// predicts no change. Round-robin order spreads the host's slow phases
/// over every kernel. Every output is checked against the spec.
///
/// Traced rounds alternate with untraced ones. A traced round times
/// execute() under a span, a hot Engine::get, and the same call taken
/// apart through a Runtime from Compiler::instantiate (encrypt, run,
/// decrypt, noiseBudget); the bfv/math microbench then prices each opcode
/// for the cost-model calibration rows.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include "driver/Engine.h"
#include "quill/Analysis.h"

#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace porcupine;

namespace {

struct CallKernel {
  std::string Name, Slug;
  const KernelSpec *Spec = nullptr;
  driver::Engine::KernelHandle H;
  /// Seeded input sets, used in turn.
  std::vector<std::vector<std::vector<uint64_t>>> Inputs;
  /// Runtime for the taken-apart call (traced runs only).
  std::unique_ptr<driver::Runtime> RT;
  std::vector<double> UntracedMs, TracedMs, NoiseBits;
};

struct CallSetup {
  std::unique_ptr<driver::Engine> E;
  std::vector<CallKernel> Kernels;
};

/// Engine, compiles, key generation (first execute), one checked warm-up
/// call per kernel. Exits on a failed compile: nothing can be measured.
std::unique_ptr<CallSetup> buildSetup(uint64_t Seed, Report &R) {
  auto S = std::make_unique<CallSetup>();
  driver::EngineOptions EO;
  EO.Defaults.RunSynthesis = false;
  EO.RuntimePoolSize = 1;
  S->E = std::make_unique<driver::Engine>(EO);
  Rng Rand(Seed);
  OutputCheck Check(R);
  for (const std::string &Name : callKernels()) {
    CallKernel K;
    K.Name = Name;
    K.Slug = slug(Name);
    K.Spec = &specOf(Name);
    auto H = S->E->get(Name);
    if (!H) {
      std::fprintf(stderr, "perfbench: %s\n", H.status().message().c_str());
      std::exit(1);
    }
    K.H = *H;
    for (int I = 0; I < 16; ++I)
      K.Inputs.push_back(K.Spec->randomInputs(Rand, PlainModulus));
    auto Out = K.H->execute(K.Inputs[0]);
    if (!Out || !Check.check(*K.Spec, K.Inputs[0], Out->Outputs,
                             "warm-up " + K.Slug)) {
      std::fprintf(stderr, "perfbench: warm-up call of %s failed\n",
                   K.Slug.c_str());
      std::exit(1);
    }
    S->Kernels.push_back(std::move(K));
  }
  return S;
}

/// One execute() call, timed and checked.
void callOnce(CallKernel &K, const std::vector<std::vector<uint64_t>> &In,
              uint64_t Req, bool UnderSpan, Report &R,
              std::vector<double> &Samples) {
  ++R.Attempted;
  auto Start = std::chrono::steady_clock::now();
  Expected<driver::ExecuteOutcome> Out = [&] {
    if (!UnderSpan)
      return K.H->execute(In);
    Span Sp("driver", "CompiledKernel::execute", K.Slug, Req);
    return K.H->execute(In);
  }();
  double Ms = secondsSince(Start) * 1e3;
  if (!Out) {
    R.fail("call " + K.Slug + ": " + Out.status().message());
    return;
  }
  // A wrong output is a failed operation but still timed, so the run
  // reports correct=false rather than missing metrics.
  OutputCheck(R).check(*K.Spec, In, Out->Outputs, "call " + K.Slug);
  Samples.push_back(Ms);
  K.NoiseBits.push_back(Out->NoiseBudgetBits);
}

/// The same call taken apart through the Runtime, each entry point under
/// its own span.
void callTakenApart(driver::Engine &E, CallKernel &K,
                    const std::vector<std::vector<uint64_t>> &In, uint64_t Req,
                    Report &R) {
  ++R.Attempted;
  {
    Span Sp("driver", "Engine::get", K.Slug, Req);
    if (!E.get(K.Name)) {
      R.fail("Engine::get " + K.Slug);
      return;
    }
  }
  const quill::Program &P = K.H->program();
  std::vector<uint64_t> Out;
  {
    Span Root("driver", "call", K.Slug, Req);
    std::vector<backend::Value> Enc;
    for (const std::vector<uint64_t> &V : In) {
      Span Sp("backend", "Runtime::encrypt", K.Slug, Req);
      auto Ct = K.RT->encrypt(V);
      if (!Ct) {
        R.fail("encrypt " + K.Slug + ": " + Ct.status().message());
        return;
      }
      Enc.push_back(Ct.take());
    }
    auto Result = [&] {
      Span Sp("backend", "Runtime::run", K.Slug, Req);
      return K.RT->run(P, Enc);
    }();
    if (!Result) {
      R.fail("run " + K.Slug + ": " + Result.status().message());
      return;
    }
    {
      Span Sp("backend", "Runtime::decrypt", K.Slug, Req);
      Out = K.RT->decrypt(*Result, P.VectorSize);
    }
    Span Sp("backend", "Runtime::noiseBudget", K.Slug, Req);
    K.RT->noiseBudget(*Result);
  }
  OutputCheck Check(R);
  Check.check(*K.Spec, In, Out, "taken-apart call " + K.Slug);
}

double spanMedian(const std::string &Name, const std::string &Tag = "") {
  return median(Tracer::instance().durationsMs(Name, Tag));
}

/// Predicted program time from the instruction mix and the microbench's
/// per-opcode medians at the kernel's ring dimension, in ms.
double predictFromOps(const quill::Program &P, const OpTimes &Ops) {
  quill::InstrMix Mix = quill::countInstructions(P);
  double MulUs = Ops.at("mul_ct_ct") + (P.ExplicitRelin ? 0 : Ops.at("relin"));
  double Us = Mix.AddsSubs * Ops.at("add") +
              Mix.CtPtMuls * Ops.at("mul_ct_pt") + Mix.CtCtMuls * MulUs +
              Mix.Rotations * Ops.at("rotate") + Mix.Relins * Ops.at("relin");
  return Us / 1e3;
}

} // namespace

void perfbench::runCall(const Options &O, Report &R, double Seconds,
                        bool Traced, bool Primary) {
  // setup_s is the p10 of the run's set-ups: the one it uses and six spare
  // ones spread over the loop (each dropped outside the timed region). Set
  // up back to back before the loop, their median read the host of those
  // few seconds and moved 20 % between two sets of ten runs.
  constexpr size_t SpareSetups = 6;
  std::vector<double> SetupSeconds;
  auto TimedSetup = [&] {
    auto Start = std::chrono::steady_clock::now();
    std::unique_ptr<CallSetup> New = buildSetup(O.Seed, R);
    SetupSeconds.push_back(secondsSince(Start));
    return New;
  };
  std::unique_ptr<CallSetup> S = TimedSetup();
  if (Traced) {
    for (CallKernel &K : S->Kernels) {
      Span Sp("backend", "Compiler::instantiate", K.Slug);
      auto RT =
          driver::Compiler(K.H->options()).instantiate({&K.H->program()});
      if (!RT) {
        std::fprintf(stderr, "perfbench: %s\n", RT.status().message().c_str());
        std::exit(1);
      }
      K.RT = std::make_unique<driver::Runtime>(RT.take());
    }
  }
  {
    CallKernel &K = S->Kernels.front();
    auto Out = K.H->execute(K.Inputs[1]);
    if (Out)
      selfTest(R, *K.Spec, K.Inputs[1], Out->Outputs);
  }

  uint64_t Req = 0;
  size_t Calls = 0;
  auto Start = std::chrono::steady_clock::now();
  for (int Round = 0; Primary ? secondsSince(Start) < Seconds : Round < 10;
       ++Round) {
    const double SpareDue = Seconds * static_cast<double>(SetupSeconds.size()) /
                            (SpareSetups + 1);
    if (Primary && SetupSeconds.size() <= SpareSetups &&
        secondsSince(Start) >= SpareDue)
      TimedSetup();
    const bool TracedRound = Traced && Round % 2 == 1;
    for (CallKernel &K : S->Kernels) {
      const auto &In = K.Inputs[static_cast<size_t>(Round) % K.Inputs.size()];
      ++Req;
      callOnce(K, In, Req, TracedRound, R,
               TracedRound ? K.TracedMs : K.UntracedMs);
      if (TracedRound)
        callTakenApart(*S->E, K, In, Req, R);
      else
        ++Calls;
    }
  }
  double Elapsed = secondsSince(Start);

  std::vector<double> P10, CostRatio;
  for (CallKernel &K : S->Kernels) {
    if (K.UntracedMs.empty())
      continue;
    P10.push_back(quantile(K.UntracedMs, 0.1));
    CostRatio.push_back(K.H->result().Cost / baselineCost(K.Name));
    R.set("call." + K.Slug + ".p50_ms", median(K.UntracedMs), "ms");
    R.set("call." + K.Slug + ".p90_ms", quantile(K.UntracedMs, 0.9), "ms");
    R.set("backend.noise_bits." + K.Slug, median(K.NoiseBits), "bits");
    std::fprintf(stderr, "call %-22s %s ms  (p90 %.3f, N=%zu)\n",
                 K.Slug.c_str(),
                 describe(K.UntracedMs, tailLevel(K.UntracedMs.size())).c_str(),
                 quantile(K.UntracedMs, 0.9), K.H->result().Params.PolyDegree);
  }
  std::fprintf(stderr,
               "call: %zu untraced calls in %.1f s; set-up n=%zu p10=%.3f "
               "p50=%.3f s\n",
               Calls, Elapsed, SetupSeconds.size(),
               quantile(SetupSeconds, 0.1), median(SetupSeconds));
  if (Primary && P10.size() == S->Kernels.size()) {
    R.set("setup_s", quantile(SetupSeconds, 0.1), "s");
    R.set("fast_ms", geomean(P10), "ms");
    R.set("cost_vs_baseline", geomean(CostRatio), "ratio");
  }
  if (!Traced)
    return;

  std::map<size_t, OpTimes> Ops = runMicrobench(R);
  double KeygenMs = 0, OverheadSum = 0;
  std::vector<double> Ratios;
  std::fprintf(stderr,
               "\ncost-model calibration (program time per call, ms)\n"
               "%-22s %6s %5s %5s %5s %5s %5s %9s %9s %9s %9s\n",
               "kernel", "N", "add", "ctpt", "ctct", "rot", "relin", "ops*mix",
               "model", "measured", "model/run");
  for (CallKernel &K : S->Kernels) {
    const quill::Program &P = K.H->program();
    double Run = spanMedian("Runtime::run", K.Slug);
    double Enc = spanMedian("Runtime::encrypt", K.Slug) * P.NumInputs;
    double Dec = spanMedian("Runtime::decrypt", K.Slug);
    double Noise = spanMedian("Runtime::noiseBudget", K.Slug);
    double Exec = median(K.TracedMs);
    KeygenMs += spanMedian("Compiler::instantiate", K.Slug);
    OverheadSum += Exec - (Enc + Run + Dec + Noise);
    R.set("backend.run_ms." + K.Slug, Run, "ms");
    double Model = K.H->result().LatencyEstimateUs / 1e3;
    R.set("quill.predicted_over_measured." + K.Slug, Model / Run, "ratio");
    size_t N = K.H->result().Params.PolyDegree;
    quill::InstrMix Mix = quill::countInstructions(P);
    std::fprintf(stderr,
                 "%-22s %6zu %5d %5d %5d %5d %5d %9.2f %9.2f %9.2f %9.3f\n",
                 K.Slug.c_str(), N, Mix.AddsSubs, Mix.CtPtMuls, Mix.CtCtMuls,
                 Mix.Rotations, Mix.Relins,
                 Ops.count(N) ? predictFromOps(P, Ops[N]) : 0.0, Model, Run,
                 Model / Run);
    if (Primary && !K.UntracedMs.empty() && !K.TracedMs.empty())
      Ratios.push_back(Exec / median(K.UntracedMs));
  }
  std::fprintf(stderr, "(ops*mix prices each opcode with the microbench at "
                       "that N; model is the compile's LatencyEstimateUs)\n\n");
  R.set("backend.keygen_ms", KeygenMs, "ms");
  R.set("backend.encrypt_ms", spanMedian("Runtime::encrypt"), "ms");
  R.set("backend.decrypt_ms", spanMedian("Runtime::decrypt"), "ms");
  R.set("backend.noise_ms", spanMedian("Runtime::noiseBudget"), "ms");
  R.set("driver.engine.get_us", spanMedian("Engine::get") * 1e3, "us");
  R.set("driver.engine.overhead_ms",
        OverheadSum / static_cast<double>(S->Kernels.size()), "ms");
  if (Primary) {
    R.set("trace.overhead_ratio", geomean(Ratios), "ratio");
    std::fprintf(stderr,
                 "tracing overhead (execute() in traced rounds / untraced "
                 "rounds, geomean of per-kernel medians): %.4f\n",
                 geomean(Ratios));
  }
}
