//===- tests/synth_parallel_test.cpp - Parallel portfolio synthesis -------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts introduced by the parallel portfolio search:
///
///   * support::ThreadPool runs tasks with valid worker ids, drains queued
///     work on shutdown, and rejects submissions afterwards.
///   * support::Cancellation stop tokens relay a stop to every holder and
///     outlive their source.
///   * Synthesis is deterministic in the thread count: 1-thread and
///     N-thread runs of the bundled kernels produce byte-identical
///     programs (the portfolio's lowest-candidate-index tie-break), and
///     repeated N-thread runs agree with each other regardless of
///     scheduling.
///   * Cancellation actually stops workers: a parallel run's candidate
///     count stays within a small factor of the sequential run's instead
///     of exhausting every losing subtree.
///   * Engine::compileAsync resolves to the same handles get() returns,
///     coalesces with concurrent requests for the same key, and reports
///     failures through the future.
///
/// Everything here is fast-labeled: the bundled kernels used (Box Blur,
/// Linear Regression, Hamming Distance) each synthesize fully — cost
/// optimization included — in well under a second. synth_test (slow)
/// runs the same determinism check on Polynomial Regression, Gx, Gy and
/// Dot Product.
///
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "kernels/Kernels.h"
#include "quill/Program.h"
#include "support/Cancellation.h"
#include "support/ThreadPool.h"
#include "synth/Synthesizer.h"
#include "SynthDeterminism.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

using namespace porcupine;
using namespace porcupine::kernels;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsTasksWithValidWorkerIds) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);

  constexpr int N = 64;
  std::atomic<int> Ran{0};
  std::atomic<bool> BadId{false};
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(Pool.submit([&](unsigned Worker) {
      if (Worker >= 4)
        BadId = true;
      ++Ran;
    }));
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), N);
  EXPECT_FALSE(BadId.load());
  EXPECT_EQ(Pool.tasksExecuted(), static_cast<size_t>(N));
}

TEST(ThreadPool, ClampsZeroWorkersToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::atomic<int> Ran{0};
  Pool.submit([&](unsigned) { ++Ran; });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 1);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  // One worker and a slow first task guarantee work is still queued when
  // shutdown() is called; the contract is that queued tasks run anyway.
  std::atomic<int> Ran{0};
  constexpr int N = 32;
  {
    ThreadPool Pool(1);
    Pool.submit([&](unsigned) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++Ran;
    });
    for (int I = 1; I < N; ++I)
      Pool.submit([&](unsigned) { ++Ran; });
    Pool.shutdown();
    EXPECT_EQ(Ran.load(), N);
    // After shutdown, submissions are rejected and dropped.
    EXPECT_FALSE(Pool.submit([&](unsigned) { ++Ran; }));
  }
  EXPECT_EQ(Ran.load(), N);
}

TEST(ThreadPool, DestructorDrainsLikeShutdown) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 16; ++I)
      Pool.submit([&](unsigned) { ++Ran; });
  }
  EXPECT_EQ(Ran.load(), 16);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool Pool(2);
  Pool.waitIdle(); // Must not block with nothing queued.
  EXPECT_EQ(Pool.tasksExecuted(), 0u);
}

//===----------------------------------------------------------------------===//
// Cancellation
//===----------------------------------------------------------------------===//

TEST(Cancellation, TokenObservesStop) {
  CancellationSource Src;
  CancellationToken Tok = Src.token();
  EXPECT_TRUE(Tok.stopPossible());
  EXPECT_FALSE(Tok.stopRequested());
  Src.requestStop();
  EXPECT_TRUE(Tok.stopRequested());
  EXPECT_TRUE(Src.stopRequested());
}

TEST(Cancellation, DefaultTokenNeverStops) {
  CancellationToken Tok;
  EXPECT_FALSE(Tok.stopPossible());
  EXPECT_FALSE(Tok.stopRequested());
}

TEST(Cancellation, TokenOutlivesSource) {
  CancellationToken Tok;
  {
    CancellationSource Src;
    Tok = Src.token();
    Src.requestStop();
  }
  EXPECT_TRUE(Tok.stopRequested());
}

TEST(Cancellation, StopsSpinningPoolWorkers) {
  // The portfolio pattern in miniature: workers spin until cancelled, the
  // coordinator requests a stop, and the pool drains promptly instead of
  // hanging — cooperative cancellation end to end.
  CancellationSource Src;
  ThreadPool Pool(4);
  std::atomic<int> Started{0}, Stopped{0};
  for (int I = 0; I < 4; ++I)
    Pool.submit([&](unsigned) {
      ++Started;
      CancellationToken Tok = Src.token();
      while (!Tok.stopRequested())
        std::this_thread::yield();
      ++Stopped;
    });
  while (Started.load() < 4)
    std::this_thread::yield();
  Src.requestStop();
  Pool.waitIdle();
  EXPECT_EQ(Stopped.load(), 4);
}

//===----------------------------------------------------------------------===//
// Synthesis determinism across thread counts
//===----------------------------------------------------------------------===//

TEST(ParallelSynthesis, BoxBlurDeterministicAcrossThreads) {
  expectSameProgram(boxBlurKernel());
}

TEST(ParallelSynthesis, LinearRegressionDeterministicAcrossThreads) {
  expectSameProgram(linearRegressionKernel());
}

TEST(ParallelSynthesis, HammingDistanceDeterministicAcrossThreads) {
  synth::SynthesisStats Seq, Par;
  expectSameProgram(hammingDistanceKernel(), &Seq, &Par);

  // Stats shape: the sequential run reports one thread, the parallel run
  // four, and the per-thread candidate counts account for every node,
  // outrun ones included. Only the portfolio can outrun a subtree.
  EXPECT_EQ(Seq.ThreadsUsed, 1);
  ASSERT_EQ(Seq.NodesPerThread.size(), 1u);
  EXPECT_EQ(Seq.NodesPerThread[0], Seq.NodesExplored);
  EXPECT_EQ(Seq.NodesOutrun, 0);

  EXPECT_EQ(Par.ThreadsUsed, 4);
  ASSERT_EQ(Par.NodesPerThread.size(), 4u);
  long Sum = std::accumulate(Par.NodesPerThread.begin(),
                             Par.NodesPerThread.end(), 0l);
  EXPECT_EQ(Sum, Par.NodesExplored + Par.NodesOutrun);
  EXPECT_GE(Par.CpuTimeSeconds, 0.0);
  EXPECT_GT(Par.TotalTimeSeconds, 0.0);

  // Cancellation bounds the wasted work: losing subtrees are cut short,
  // so the portfolio explores at most a small multiple of the sequential
  // candidate count (the factor covers the prefix-enumeration pass plus
  // the cancellation-detection window on each worker; exhausting the
  // losing subtrees outright would be orders of magnitude more).
  EXPECT_LT(Par.NodesExplored + Par.NodesOutrun,
            3 * Seq.NodesExplored + 100000);
}

TEST(ParallelSynthesis, RepeatedParallelRunsAgree) {
  const KernelBundle B = hammingDistanceKernel();
  auto A = synth::synthesize(B.Spec, B.Sketch, determinismOptions(4));
  auto C = synth::synthesize(B.Spec, B.Sketch, determinismOptions(4));
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(C.Found);
  EXPECT_EQ(quill::printProgram(A.Prog), quill::printProgram(C.Prog));
  EXPECT_DOUBLE_EQ(A.Stats.FinalCost, C.Stats.FinalCost);
  // The subtrees up to each query's winner always run to completion, so
  // the needed-candidate count does not depend on the schedule either.
  EXPECT_EQ(A.Stats.NodesExplored, C.Stats.NodesExplored);
}

TEST(ParallelSynthesis, AutoThreadsResolvesToHardware) {
  const KernelBundle B = linearRegressionKernel();
  auto R = synth::synthesize(B.Spec, B.Sketch, determinismOptions(0));
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Stats.ThreadsUsed,
            static_cast<int>(resolveThreadCount(0)));
  EXPECT_EQ(R.Stats.NodesPerThread.size(),
            static_cast<size_t>(R.Stats.ThreadsUsed));
}

//===----------------------------------------------------------------------===//
// Engine::compileAsync
//===----------------------------------------------------------------------===//

driver::CompileOptions bundledOptions() {
  driver::CompileOptions Opts;
  Opts.RunSynthesis = false;
  return Opts;
}

TEST(CompileAsync, FutureResolvesToKernelHandle) {
  driver::Engine E;
  auto F = E.compileAsync("dot product", bundledOptions());
  auto K = F.get();
  ASSERT_TRUE(K.hasValue());
  EXPECT_EQ((*K)->name(), "Dot Product");
  driver::EngineStats S = E.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Compiles, 1u);
}

TEST(CompileAsync, SharesCacheWithSynchronousGet) {
  driver::Engine E;
  auto F = E.compileAsync("box blur", bundledOptions());
  auto Async = F.get();
  ASSERT_TRUE(Async.hasValue());
  auto Sync = E.get("box blur", bundledOptions());
  ASSERT_TRUE(Sync.hasValue());
  EXPECT_EQ(*Async, *Sync); // Same shared handle, not a recompile.
  driver::EngineStats S = E.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
}

TEST(CompileAsync, ConcurrentRequestsCoalesceOntoOneCompile) {
  driver::Engine E;
  std::vector<std::future<Expected<driver::Engine::KernelHandle>>> Futures;
  for (int I = 0; I < 4; ++I)
    Futures.push_back(E.compileAsync("Gx", bundledOptions()));
  driver::Engine::KernelHandle First;
  for (auto &F : Futures) {
    auto K = F.get();
    ASSERT_TRUE(K.hasValue());
    if (!First)
      First = *K;
    EXPECT_EQ(*K, First);
  }
  driver::EngineStats S = E.stats();
  // However the four threads interleaved, the kernel compiled exactly
  // once; every other request was a hit (cached or coalesced).
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 3u);
}

TEST(CompileAsync, ThreadCountDoesNotSplitTheCompileCache) {
  // Synthesis.Threads is a pure speed knob — the portfolio tie-break makes
  // the program byte-identical for every value — so it is deliberately
  // excluded from canonicalKey(): a deployment retuning --jobs must keep
  // hitting its warm cache entries and artifacts.
  driver::CompileOptions A = bundledOptions();
  driver::CompileOptions B = bundledOptions();
  A.Synthesis.Threads = 1;
  B.Synthesis.Threads = 8;
  EXPECT_EQ(A.canonicalKey(), B.canonicalKey());
  EXPECT_EQ(A.fingerprint(), B.fingerprint());

  driver::Engine E;
  auto KA = E.get("dot product", A);
  auto KB = E.get("dot product", B);
  ASSERT_TRUE(KA.hasValue());
  ASSERT_TRUE(KB.hasValue());
  EXPECT_EQ(*KA, *KB); // One cache entry, not two.
  EXPECT_EQ(E.stats().Misses, 1u);
  EXPECT_EQ(E.stats().Hits, 1u);
}

TEST(CompileAsync, FailureSurfacesThroughFuture) {
  driver::Engine E;
  auto F = E.compileAsync("no such kernel anywhere", bundledOptions());
  auto K = F.get();
  EXPECT_FALSE(K.hasValue());
  driver::EngineStats S = E.stats();
  EXPECT_EQ(S.Compiles, 0u);
}

} // namespace
