//===- driver/Engine.h - Compile-once / run-many serving API ----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving half of the driver API. Porcupine kernels are expensive to
/// synthesize (CEGIS: seconds to minutes) but cheap to run, so a deployment
/// compiles once and serves many encrypted requests. The Engine owns that
/// split:
///
///   driver::Engine E;                            // thread-safe
///   auto K = E.get("dot product");               // compile (cache miss)...
///   auto K2 = E.get("dot product");              // ...same handle (hit):
///                                                // no synthesis re-run
///   auto Out = (*K)->execute({{1,2,3,4}, ...});  // one encrypted call
///   auto Many = (*K)->executeMany(Batch);        // batched calls, one
///                                                // runtime checkout
///   auto F = E.compileAsync("sobel gx");         // warm the cache off the
///   ...                                          // request path; same
///   auto K3 = F.get();                           // miss-coalescing as get()
///
/// Engine::get() returns a shared handle to an immutable CompiledKernel
/// (program + analyses + cost + BFV parameters + emitted SEAL code) backed
/// by a fingerprinted in-memory LRU cache: the key is the resolved kernel
/// name plus CompileOptions::canonicalKey(), so identical (kernel, options)
/// pairs never re-synthesize, while any semantic option change compiles
/// fresh. Concurrent misses of the same key coalesce onto one compile;
/// failures are reported to every waiter and never cached (a later call may
/// retry, e.g. with a longer timeout).
///
/// CompiledKernel handles stay valid after eviction (shared ownership) and
/// are safe to call from many threads at once: encrypted execution draws
/// from a small pool of reusable Runtimes (keys built lazily, once per
/// pool slot), each checked out by one thread at a time. The backend
/// builds one context per parameter set and shares it across pool slots,
/// kernels, Engines and tenants.
///
/// Engines warm-start from disk via kernel artifacts (driver/Artifact.h):
/// saveArtifact() persists a compiled kernel as versioned JSON wrapping the
/// textual Quill program; Engine::loadArtifact() parses, re-validates, and
/// caches it under its recorded fingerprint so the matching get() is a hit.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_DRIVER_ENGINE_H
#define PORCUPINE_DRIVER_ENGINE_H

#include "driver/Driver.h"
#include "support/ThreadPool.h"

#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace porcupine {
namespace driver {

/// One fully compiled kernel, immutable and shareable across threads. The
/// compile-time state (CompileResult) never changes after construction;
/// execution goes through an internal pool of reusable Runtimes so
/// concurrent execute()/executeMany() calls are safe and do not rebuild
/// contexts or keys per call.
class CompiledKernel {
public:
  CompiledKernel(const CompiledKernel &) = delete;
  CompiledKernel &operator=(const CompiledKernel &) = delete;

  /// The full compile record (program, analyses, cost, params, SEAL code).
  const CompileResult &result() const { return Result; }
  const quill::Program &program() const { return Result.Program; }
  /// The options the kernel was compiled with (and executes under).
  const CompileOptions &options() const { return Opts; }
  const std::string &name() const { return Result.KernelName; }
  /// The (kernel, options) fingerprint this kernel is cached under.
  const std::string &fingerprint() const { return Fp; }

  /// One evaluation on the backend the kernel was compiled for
  /// (options().Backend — baked into the cache key, so one kernel never
  /// serves two backends): Runtime::execute() on a pooled runtime over
  /// the inputs (one vector per program input, each at most VectorSize
  /// wide, zero-filled). Thread-safe.
  Expected<ExecuteOutcome>
  execute(const std::vector<std::vector<uint64_t>> &Inputs) const;

  /// Batched evaluation: every element of \p Batch is one execute() input
  /// set. The whole batch reuses a single checked-out Runtime (one context,
  /// one key set), so per-call overhead is amortized; outcomes are returned
  /// in batch order. Fails atomically with the offending batch index on the
  /// first bad input set. Thread-safe; concurrent callers each check out
  /// their own Runtime from the pool.
  Expected<std::vector<ExecuteOutcome>>
  executeMany(const std::vector<std::vector<std::vector<uint64_t>>> &Batch)
      const;

  /// Packed evaluation for cross-request batching (driver/Batcher.h): one
  /// vector per program input, each up to packedRowWidth() slots wide, laid
  /// out by the caller with one independent request per VectorSize window.
  /// The program runs ONCE over the full row — backend operations act on
  /// every slot of the batching row regardless of the program's VectorSize
  /// — so one call serves packedRowWidth()/VectorSize requests. The
  /// outcome's Outputs carry the full decrypted row for the caller to
  /// slice. Only sound for programs Batcher::BatchPlan judged batchable
  /// (splat constants, masked-slot validation), or for a single request
  /// in window 0. Thread-safe.
  Expected<ExecuteOutcome>
  executePacked(const std::vector<std::vector<uint64_t>> &PackedInputs) const;

  /// The batching-row width (slotCount(), N/2 on "bfv") of the runtime
  /// this kernel executes on. Leases a pooled runtime, so the first call
  /// builds it (its keys, and the context when no live runtime shares
  /// one); fails when it cannot be built.
  Expected<size_t> packedRowWidth() const;

  /// Upper bound on concurrently checked-out Runtimes (pool capacity).
  size_t runtimePoolSize() const { return PoolSize; }
  /// Runtimes actually built so far (grows lazily up to the pool size).
  size_t runtimesBuilt() const;

private:
  friend class Engine;

  CompiledKernel(CompileResult R, CompileOptions O, std::string Fingerprint,
                 size_t PoolSize)
      : Result(std::move(R)), Opts(std::move(O)), Fp(std::move(Fingerprint)),
        PoolSize(PoolSize ? PoolSize : 1) {}

  /// RAII checkout of one pooled Runtime; returns it on destruction.
  class RuntimeLease {
  public:
    RuntimeLease(const CompiledKernel *Owner, std::unique_ptr<Runtime> RT)
        : Owner(Owner), RT(std::move(RT)) {}
    RuntimeLease(RuntimeLease &&Other) noexcept
        : Owner(Other.Owner), RT(std::move(Other.RT)) {
      Other.Owner = nullptr;
    }
    RuntimeLease &operator=(RuntimeLease &&) = delete;
    ~RuntimeLease();

    Runtime &runtime() { return *RT; }

  private:
    const CompiledKernel *Owner;
    std::unique_ptr<Runtime> RT;
  };

  /// Pops an idle Runtime, builds a new one (outside the pool lock) while
  /// under the pool size, or blocks until a lease returns.
  Expected<RuntimeLease> acquireRuntime() const;

  const CompileResult Result;
  const CompileOptions Opts;
  const std::string Fp;
  const size_t PoolSize;

  mutable std::mutex PoolMutex;
  mutable std::condition_variable PoolAvailable;
  mutable std::vector<std::unique_ptr<Runtime>> Idle;
  mutable size_t Built = 0; ///< Lifetime count, built or building.
};

/// Counters the Engine keeps (monotonic since construction or clear()).
struct EngineStats {
  uint64_t Hits = 0;      ///< get() served from cache (incl. coalesced).
  uint64_t Misses = 0;    ///< get() that had to compile.
  uint64_t Evictions = 0; ///< Entries dropped by the LRU policy.
  uint64_t Compiles = 0;  ///< Compiles that succeeded.
  uint64_t CompileFailures = 0; ///< Compiles that failed (never cached).
  uint64_t ArtifactLoads = 0;   ///< Kernels warm-started from disk.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Engine configuration.
struct EngineOptions {
  /// Maximum cached CompiledKernels; least-recently-used entries beyond
  /// this are evicted (their handles stay valid for holders). Clamped >= 1.
  size_t CacheCapacity = 16;
  /// Runtime pool capacity per CompiledKernel (max concurrent encrypted
  /// executions per kernel before callers queue). Clamped >= 1.
  size_t RuntimePoolSize = 4;
  /// Options applied by get(name); get(name, options) overrides per call.
  CompileOptions Defaults;
  /// Worker threads backing compileAsync() (one shared pool per Engine,
  /// created on first use). Bounds background-compile concurrency instead
  /// of spawning one OS thread per call. Clamped >= 1.
  unsigned AsyncCompileThreads = 2;
};

/// Thread-safe compile-once / run-many front end: a fingerprinted LRU
/// cache of CompiledKernels over the Compiler pipeline. See the file
/// comment for the full contract. Not copyable or movable (contains
/// synchronization state); share one Engine per process or service.
class Engine {
public:
  using KernelHandle = std::shared_ptr<const CompiledKernel>;

  /// \p Registry must outlive the Engine when given; defaults to the
  /// builtin catalog. KernelRegistry lookups are internally thread-safe,
  /// so one registry may back any number of Engines and Compilers.
  explicit Engine(EngineOptions Options = {},
                  const kernels::KernelRegistry *Registry = nullptr)
      : EOpts(std::move(Options)), Registry(Registry) {
    if (EOpts.CacheCapacity == 0)
      EOpts.CacheCapacity = 1;
    if (EOpts.RuntimePoolSize == 0)
      EOpts.RuntimePoolSize = 1;
  }

  /// Runs every queued compileAsync() task to completion (resolving its
  /// future) and joins the pool before the cache is torn down.
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Resolves \p KernelName (exact-then-prefix-then-substring, like the
  /// Compiler) and returns the cached CompiledKernel for (kernel,
  /// EngineOptions::Defaults), compiling on the first request.
  Expected<KernelHandle> get(const std::string &KernelName);

  /// Same, under explicit per-call options. Equal (kernel, options) pairs
  /// share one cache entry regardless of how the options were built.
  Expected<KernelHandle> get(const std::string &KernelName,
                             const CompileOptions &Opts);

  /// Non-blocking get(): returns immediately with a future that resolves
  /// to the same handle (or failure) a synchronous get() would produce.
  /// The compile runs on a small per-Engine support::ThreadPool
  /// (EngineOptions::AsyncCompileThreads workers) through the identical
  /// cache path, so concurrent compileAsync()/get() calls for one
  /// (kernel, options) pair coalesce onto a single compile — kicking off
  /// a compileAsync() and then calling get() from a serving thread never
  /// synthesizes twice — and a burst of calls queues FIFO instead of
  /// spawning a thread each. A cached kernel resolves the future (almost)
  /// immediately.
  ///
  /// Lifetime: ~Engine() drains the pool, so every returned future is
  /// resolved by the time destruction finishes; futures may safely
  /// outlive the Engine, but get() on them after that only yields
  /// already-computed results.
  std::future<Expected<KernelHandle>>
  compileAsync(const std::string &KernelName);
  std::future<Expected<KernelHandle>>
  compileAsync(const std::string &KernelName, const CompileOptions &Opts);

  /// Warm-starts from a kernel artifact (driver/Artifact.h): parses and
  /// re-validates the file, caches the kernel under its recorded
  /// fingerprint key, and returns the handle. If the same (kernel,
  /// options) pair is already cached, the existing entry wins and is
  /// returned. The artifact's recorded execution options (plaintext
  /// modulus, execution seed) govern how the loaded kernel runs.
  Expected<KernelHandle> loadArtifact(const std::string &Path);

  /// Snapshot of the counters.
  EngineStats stats() const;

  /// Cached entry count (ready + compiling).
  size_t size() const;
  size_t capacity() const { return EOpts.CacheCapacity; }
  const EngineOptions &engineOptions() const { return EOpts; }
  const kernels::KernelRegistry &registry() const {
    return Registry ? *Registry : kernels::KernelRegistry::builtin();
  }

  /// Drops every cache entry and zeroes the stats. Outstanding handles
  /// remain valid; in-flight compiles complete and are discarded.
  void clear();

private:
  /// One cache entry. Concurrent get()s of a key that is still compiling
  /// block on CV; the slot outlives eviction via shared_ptr so waiters are
  /// always answered.
  struct Slot {
    enum class State { Compiling, Ready, Failed };
    std::mutex M;
    std::condition_variable CV;
    State St = State::Compiling;
    KernelHandle Kernel; ///< Set when Ready.
    Status Error;        ///< Set when Failed.
  };
  using LruList = std::list<std::pair<std::string, std::shared_ptr<Slot>>>;

  Expected<KernelHandle> getImpl(const std::string &KernelName,
                                 const CompileOptions &Opts);
  /// Inserts a ready kernel under \p Key (used by loadArtifact); returns
  /// the cached handle (the pre-existing one on a key collision).
  KernelHandle insertReady(const std::string &Key, KernelHandle K);
  /// Drops LRU entries beyond capacity. Caller holds CacheMutex.
  void evictOverCapacity();
  /// The lazily created compileAsync() pool.
  ThreadPool &asyncPool();

  EngineOptions EOpts;
  const kernels::KernelRegistry *Registry = nullptr;

  std::once_flag AsyncPoolOnce;
  std::unique_ptr<ThreadPool> AsyncPool;

  mutable std::mutex CacheMutex;
  LruList Lru; ///< Front = most recently used.
  std::map<std::string, LruList::iterator> ByKey;
  EngineStats Counters;
};

} // namespace driver
} // namespace porcupine

#endif // PORCUPINE_DRIVER_ENGINE_H
