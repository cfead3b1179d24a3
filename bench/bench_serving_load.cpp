//===- bench/bench_serving_load.cpp - Serving-tier tail latency -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load harness for driver::Server: drives the same request stream through
/// a batching server (cross-request ciphertext batching on) and an
/// unbatched baseline (MaxBatch = 1, one request per ciphertext), and
/// reports sustained throughput plus exact p50/p95/p99 latency from the
/// raw per-request samples.
///
///   * closed loop: C client threads each issue call() back-to-back —
///     offered load tracks service capacity, measuring saturated
///     throughput;
///   * open loop: requests arrive on a fixed timer regardless of
///     completion (the arrival process of a real service), so queueing
///     delay shows up in the tail instead of being absorbed by client
///     back-pressure.
///
/// Emits one JSON object on stdout and a human-readable summary on stderr,
/// and exits 1 unless batching reaches 3x the unbatched throughput at no
/// worse p99.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "driver/Server.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace porcupine;
using namespace porcupine::driver;

namespace {

constexpr const char *Kernel = "dot product";
constexpr size_t Width = 8;

Request makeRequest(uint64_t Salt) {
  std::vector<uint64_t> A(Width), B(Width);
  for (size_t J = 0; J < Width; ++J) {
    A[J] = (Salt * 97 + J * 7 + 1) % 251;
    B[J] = (Salt * 31 + J * 13 + 5) % 251;
  }
  return Request{Kernel, "load", {std::move(A), std::move(B)}};
}

struct LoadResult {
  double ThroughputRps = 0;
  double P50Us = 0, P95Us = 0, P99Us = 0;
  size_t Served = 0, Failed = 0;
};

double percentile(std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  if (Rank > 0)
    --Rank;
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

/// C clients issuing call() back-to-back until \p Total requests are done.
LoadResult closedLoop(Server &S, size_t Total, int Clients) {
  std::mutex M;
  std::vector<double> Samples;
  std::atomic<size_t> Next{0}, Failed{0};
  Stopwatch Wall;
  std::vector<std::thread> Pool;
  for (int C = 0; C < Clients; ++C) {
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Total;) {
        Stopwatch W;
        auto R = S.call(makeRequest(I));
        double Us = W.micros();
        if (!R) {
          ++Failed;
          continue;
        }
        std::lock_guard<std::mutex> L(M);
        Samples.push_back(Us);
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  double Seconds = Wall.seconds();

  LoadResult Out;
  Out.Served = Samples.size();
  Out.Failed = Failed.load();
  Out.ThroughputRps = static_cast<double>(Out.Served) / Seconds;
  std::sort(Samples.begin(), Samples.end());
  Out.P50Us = percentile(Samples, 0.50);
  Out.P95Us = percentile(Samples, 0.95);
  Out.P99Us = percentile(Samples, 0.99);
  return Out;
}

/// Fixed-rate arrivals: submit() every \p IntervalUs regardless of
/// completions, then drain every future.
LoadResult openLoop(Server &S, size_t Total, uint64_t IntervalUs) {
  std::vector<std::future<Expected<Response>>> Futs;
  std::vector<Stopwatch> Starts;
  Futs.reserve(Total);
  Starts.reserve(Total);
  size_t Rejected = 0;
  Stopwatch Wall;
  for (size_t I = 0; I < Total; ++I) {
    Starts.emplace_back();
    auto F = S.submit(makeRequest(I));
    if (F)
      Futs.push_back(std::move(*F));
    else {
      ++Rejected;
      Starts.pop_back();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(IntervalUs));
  }
  std::vector<double> Samples;
  size_t Failed = Rejected;
  for (size_t I = 0; I < Futs.size(); ++I) {
    auto R = Futs[I].get();
    double Us = Starts[I].micros();
    if (R)
      Samples.push_back(Us);
    else
      ++Failed;
  }
  double Seconds = Wall.seconds();

  LoadResult Out;
  Out.Served = Samples.size();
  Out.Failed = Failed;
  Out.ThroughputRps = static_cast<double>(Out.Served) / Seconds;
  std::sort(Samples.begin(), Samples.end());
  Out.P50Us = percentile(Samples, 0.50);
  Out.P95Us = percentile(Samples, 0.95);
  Out.P99Us = percentile(Samples, 0.99);
  return Out;
}

ServerOptions servingOptions(size_t MaxBatch) {
  ServerOptions SO;
  SO.NumShards = 1; // One shard: measure batching, not parallelism.
  SO.MaxBatch = MaxBatch;
  SO.FlushMicros = 2000;
  SO.Engine.Defaults.RunSynthesis = false;
  SO.Engine.RuntimePoolSize = 1;
  return SO;
}

void printMode(const char *Name, const LoadResult &R) {
  std::fprintf(stderr,
               "%-22s %9.1f req/s   p50 %8.0fus  p95 %8.0fus  p99 %8.0fus"
               "   (%zu served, %zu failed)\n",
               Name, R.ThroughputRps, R.P50Us, R.P95Us, R.P99Us, R.Served,
               R.Failed);
}

void jsonMode(const char *Name, const LoadResult &R, bool Comma) {
  std::printf("    \"%s\": {\"throughput_rps\": %.1f, \"p50_us\": %.0f, "
              "\"p95_us\": %.0f, \"p99_us\": %.0f, \"served\": %zu, "
              "\"failed\": %zu}%s\n",
              Name, R.ThroughputRps, R.P50Us, R.P95Us, R.P99Us, R.Served,
              R.Failed, Comma ? "," : "");
}

} // namespace

int main(int Argc, char **Argv) {
  const size_t Requests = static_cast<size_t>(
      bench::argInt(Argc, Argv, "--requests", 96));
  const int Clients = bench::argInt(Argc, Argv, "--clients", 8);
  const size_t MaxBatch =
      static_cast<size_t>(bench::argInt(Argc, Argv, "--max-batch", 32));

  // Warm both servers outside the measured window (compile + keygen).
  Server Batched(servingOptions(MaxBatch));
  Server Unbatched(servingOptions(1));
  if (!Batched.call(makeRequest(0)) || !Unbatched.call(makeRequest(0))) {
    std::fprintf(stderr, "warmup failed\n");
    return 1;
  }

  std::fprintf(stderr, "serving load, kernel '%s', %zu requests, %d clients, "
                       "max batch %zu\n",
               Kernel, Requests, Clients, MaxBatch);

  LoadResult ClosedUn = closedLoop(Unbatched, Requests, Clients);
  LoadResult ClosedBa = closedLoop(Batched, Requests, Clients);
  printMode("closed loop, unbatched", ClosedUn);
  printMode("closed loop, batched", ClosedBa);
  double Speedup =
      ClosedUn.ThroughputRps > 0 ? ClosedBa.ThroughputRps / ClosedUn.ThroughputRps
                                 : 0;
  std::fprintf(stderr, "%-22s %9.2fx\n", "batching speedup", Speedup);

  // Open loop at an interval the batched server sustains comfortably; the
  // unbatched baseline is overloaded at the same rate, which is the point:
  // identical arrivals, tail governed by batching.
  uint64_t IntervalUs = 1;
  if (ClosedBa.ThroughputRps > 0)
    IntervalUs = static_cast<uint64_t>(2e6 / ClosedBa.ThroughputRps) + 1;
  LoadResult OpenBa = openLoop(Batched, Requests, IntervalUs);
  printMode("open loop, batched", OpenBa);

  std::printf("{\n");
  std::printf("  \"schema\": \"serving-load/1\",\n");
  std::printf("  \"kernel\": \"%s\",\n", Kernel);
  std::printf("  \"requests\": %zu,\n", Requests);
  std::printf("  \"clients\": %d,\n", Clients);
  std::printf("  \"max_batch\": %zu,\n", MaxBatch);
  std::printf("  \"open_loop_interval_us\": %llu,\n",
              static_cast<unsigned long long>(IntervalUs));
  std::printf("  \"modes\": {\n");
  jsonMode("closed_unbatched", ClosedUn, true);
  jsonMode("closed_batched", ClosedBa, true);
  jsonMode("open_batched", OpenBa, false);
  std::printf("  },\n");
  std::printf("  \"batching_speedup\": %.2f\n", Speedup);
  std::printf("}\n");

  // The tentpole's acceptance bar: batching must lift saturated throughput
  // >= 3x at a p99 no worse than the unbatched baseline's.
  if (Speedup < 3.0) {
    std::fprintf(stderr, "FAIL: batching speedup %.2fx < 3x\n", Speedup);
    return 1;
  }
  if (ClosedBa.P99Us > ClosedUn.P99Us) {
    std::fprintf(stderr, "FAIL: batched p99 %.0fus exceeds unbatched %.0fus\n",
                 ClosedBa.P99Us, ClosedUn.P99Us);
    return 1;
  }
  return 0;
}
