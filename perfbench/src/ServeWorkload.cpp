//===- perfbench/src/ServeWorkload.cpp - The `serve` workload -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open loop: one generator thread submits seeded Poisson arrivals at a
/// fixed rate into a driver::Server with 2 shards, 4 tenants (two per
/// shard), batching on and no deadlines. The mix is mostly Dot Product and
/// Gx, which batch many requests into one packed row, plus Group-By Sum,
/// which does not batch and is served one request per ciphertext. This
/// uses the bfv layer the other way round from `call` and adds queueing,
/// batching and the unbatched fallback.
///
/// It is not a benchmark workload of its own: its latencies do not repeat
/// from run to run within a bound. Every traced run runs it briefly for
/// the driver.server.* and driver.batcher.* per-layer metrics.
///
/// The generator sleeps until each absolute due time, so its rate does not
/// drift; a request's latency runs from its due time: (submit - due) +
/// Response::TotalUs, so a stall counts against every request it delays.
/// Responses are read after the arrival window closes, which does not
/// change their latency. Every response is checked against the spec.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include "driver/Server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace porcupine;

namespace {

struct Arrival {
  double DueS = 0;
  size_t Kernel = 0;
  size_t Tenant = 0;
  std::vector<std::vector<uint64_t>> Inputs;
};

/// The whole arrival schedule, drawn from the seed before the loop starts.
std::vector<Arrival> schedule(uint64_t Seed, double Seconds) {
  Rng Rand(Seed);
  std::vector<Arrival> Out;
  double T = 0;
  while (true) {
    double U = static_cast<double>(Rand.next() >> 11) * 0x1.0p-53;
    T += -std::log(1.0 - U) / ServeRatePerSecond;
    if (T >= Seconds)
      return Out;
    Arrival A;
    A.DueS = T;
    double Pick = static_cast<double>(Rand.next() >> 11) * 0x1.0p-53;
    const auto &Mix = serveMix();
    for (A.Kernel = 0; A.Kernel + 1 < Mix.size(); ++A.Kernel) {
      if (Pick < Mix[A.Kernel].Share)
        break;
      Pick -= Mix[A.Kernel].Share;
    }
    A.Tenant = Rand.below(serveTenants().size());
    A.Inputs = specOf(Mix[A.Kernel].Kernel).randomInputs(Rand, PlainModulus);
    Out.push_back(std::move(A));
  }
}

driver::ServerOptions serverOptions() {
  driver::ServerOptions SO;
  SO.NumShards = ServeShards;
  SO.Engine.Defaults.RunSynthesis = false; // Serve the bundled programs.
  return SO;
}

driver::Request request(size_t Kernel, size_t Tenant,
                        std::vector<std::vector<uint64_t>> Inputs) {
  driver::Request Req;
  Req.Kernel = serveMix()[Kernel].Kernel;
  Req.Tenant = serveTenants()[Tenant];
  Req.Inputs = std::move(Inputs);
  return Req;
}

/// Server construction plus one checked warm-up call per (tenant, kernel):
/// compile, BatchPlan::analyze and key generation all happen here.
std::unique_ptr<driver::Server> buildSetup(uint64_t Seed, Report &R) {
  auto S = std::make_unique<driver::Server>(serverOptions());
  std::vector<int> PerShard(ServeShards, 0);
  for (const std::string &T : serveTenants())
    ++PerShard[S->shardOf(T)];
  for (int Count : PerShard)
    if (Count != 2) {
      std::fprintf(stderr, "perfbench: tenants are not two per shard\n");
      std::exit(1);
    }
  Rng Rand(Seed ^ 0x5e7u);
  OutputCheck Check(R);
  for (size_t T = 0; T < serveTenants().size(); ++T)
    for (size_t K = 0; K < serveMix().size(); ++K) {
      const KernelSpec &Spec = specOf(serveMix()[K].Kernel);
      auto In = Spec.randomInputs(Rand, PlainModulus);
      auto Resp = S->call(request(K, T, In));
      if (!Resp ||
          !Check.check(Spec, In, Resp->Outputs, "serve warm-up")) {
        std::fprintf(stderr, "perfbench: serve warm-up failed\n");
        std::exit(1);
      }
    }
  return S;
}

/// Value of the first sample of \p Metric in Prometheus text, summed over
/// label sets.
double promValue(const std::string &Text, const std::string &Metric) {
  std::istringstream In(Text);
  double Sum = 0;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.compare(0, Metric.size(), Metric) != 0 ||
        (Line.size() > Metric.size() && Line[Metric.size()] != ' ' &&
         Line[Metric.size()] != '{'))
      continue;
    Sum += std::strtod(Line.c_str() + Line.rfind(' ') + 1, nullptr);
  }
  return Sum;
}

struct Sent {
  size_t Index = 0;
  double LagMs = 0;
  int64_t SubmitNs = 0;
  std::future<Expected<driver::Response>> F;
};

} // namespace

void perfbench::runServe(const Options &O, Report &R, double Seconds) {
  std::unique_ptr<driver::Server> S = buildSetup(O.Seed, R);
  const std::vector<Arrival> Arrivals = schedule(O.Seed, Seconds);

  // Open loop: sleep until each absolute due time, then submit.
  std::vector<Sent> InFlight;
  InFlight.reserve(Arrivals.size());
  std::vector<double> LagMs;
  const auto Origin =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  for (size_t I = 0; I < Arrivals.size(); ++I) {
    const Arrival &A = Arrivals[I];
    auto Due = Origin + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(A.DueS));
    std::this_thread::sleep_until(Due);
    auto Now = std::chrono::steady_clock::now();
    Sent X;
    X.Index = I;
    X.LagMs = std::chrono::duration<double, std::milli>(Now - Due).count();
    X.SubmitNs = Tracer::nowNs();
    LagMs.push_back(X.LagMs);
    ++R.Attempted;
    auto F = [&] {
      auto Req = request(A.Kernel, A.Tenant, A.Inputs);
      Span Sp("driver", "Server::submit", slug(Req.Kernel), I);
      return S->submit(std::move(Req));
    }();
    if (!F) {
      R.fail("serve: rejected: " + F.status().message());
      continue;
    }
    X.F = F.take();
    InFlight.push_back(std::move(X));
  }
  const double Backlog = static_cast<double>(S->queueDepth());

  // Collect. A response not back within the drain limit counts as failed.
  const auto DrainLimit =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<double> Latency, QueueMs, ExecMs, Batch;
  std::map<std::string, std::vector<double>> ExecByKernel;
  OutputCheck Check(R);
  bool SelfTested = false;
  for (Sent &X : InFlight) {
    const Arrival &A = Arrivals[X.Index];
    const std::string Kernel = serveMix()[A.Kernel].Kernel;
    if (X.F.wait_until(DrainLimit) != std::future_status::ready) {
      R.fail("serve: no response within the drain limit");
      continue;
    }
    Expected<driver::Response> Resp = X.F.get();
    if (!Resp) {
      R.fail("serve: " + Resp.status().message());
      continue;
    }
    const KernelSpec &Spec = specOf(Kernel);
    if (!Check.check(Spec, A.Inputs, Resp->Outputs, "serve " + slug(Kernel)))
      continue;
    if (!SelfTested) {
      selfTest(R, Spec, A.Inputs, Resp->Outputs);
      SelfTested = true;
    }
    Latency.push_back(X.LagMs + static_cast<double>(Resp->TotalUs) / 1e3);
    double Queue = static_cast<double>(Resp->QueueUs) / 1e3;
    double Exec = static_cast<double>(Resp->TotalUs - Resp->QueueUs) / 1e3;
    QueueMs.push_back(Queue);
    ExecMs.push_back(Exec);
    ExecByKernel[slug(Kernel)].push_back(Exec);
    Batch.push_back(static_cast<double>(Resp->BatchSize));
    // Server-side phases, placed from the submit time and the response.
    int64_t QueueEnd = X.SubmitNs + static_cast<int64_t>(Resp->QueueUs) * 1000;
    Tracer::instance().add("driver", "Server.queue", slug(Kernel), X.SubmitNs,
                           QueueEnd, X.Index);
    Tracer::instance().add(
        "driver", "Server.execute", slug(Kernel), QueueEnd,
        X.SubmitNs + static_cast<int64_t>(Resp->TotalUs) * 1000, X.Index);
  }
  const std::string Metrics = S->metricsText();
  S.reset();

  std::fprintf(stderr,
               "serve: %zu arrivals in %.0f s at %.0f/s, %zu answered, "
               "backlog %.0f when arrivals stopped\n"
               "serve latency (due to response) ms: %s\n"
               "serve queue ms: %s\nserve exec ms: %s\n"
               "generator lateness ms: %s (max %.3f)\n",
               Arrivals.size(), Seconds, ServeRatePerSecond, Latency.size(),
               Backlog, describe(Latency, tailLevel(Latency.size())).c_str(),
               describe(QueueMs, 0.99).c_str(), describe(ExecMs, 0.99).c_str(),
               describe(LagMs, 0.99).c_str(),
               LagMs.empty() ? 0.0
                             : *std::max_element(LagMs.begin(), LagMs.end()));

  if (Latency.empty())
    return;
  R.set("driver.server.latency_ms.p50", median(Latency), "ms");
  R.set("driver.server.queue_ms.p50", median(QueueMs), "ms");
  R.set("driver.server.queue_ms.p99", quantile(QueueMs, 0.99), "ms");
  R.set("driver.server.exec_ms.p50", median(ExecMs), "ms");
  for (const auto &KV : ExecByKernel)
    R.set("driver.server.exec_ms." + KV.first, median(KV.second), "ms");
  R.set("driver.server.batch_size", median(Batch), "count");
  R.set("driver.server.fill_ratio",
        promValue(Metrics, "porcupine_server_batch_fill_ratio"), "ratio");
  R.set("driver.server.rejects",
        promValue(Metrics, "porcupine_server_admission_rejects_total"),
        "count");
  R.set("driver.server.expired",
        promValue(Metrics, "porcupine_server_deadline_expired_total"),
        "count");
  R.set("driver.server.gen_lag_ms", quantile(LagMs, 0.99), "ms");
  R.set("driver.server.backlog", Backlog, "count");

  // BatchPlan::analyze on each served kernel, from the public API.
  driver::EngineOptions EO;
  EO.Defaults = serverOptions().Engine.Defaults;
  driver::Engine E(EO);
  double PlanMs = 0;
  for (const MixEntry &M : serveMix()) {
    auto K = E.get(M.Kernel);
    if (!K)
      continue;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Span Sp("driver", "BatchPlan::analyze", slug(M.Kernel));
      driver::BatchPlan::analyze(**K, specOf(M.Kernel),
                                 serverOptions().MaxBatch);
    }
    PlanMs += median(
        Tracer::instance().durationsMs("BatchPlan::analyze", slug(M.Kernel)));
  }
  R.set("driver.batcher.plan_ms", PlanMs, "ms");
}
