//===- driver/Engine.cpp - Compile-once / run-many serving API ------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locking design, for maintainers:
//
//   CacheMutex    guards the LRU list, the key map, and the counters.
//   Slot::M       guards one entry's state transition Compiling ->
//                 Ready/Failed; waiters block on Slot::CV.
//   PoolMutex     (per CompiledKernel) guards the idle-runtime vector.
//                 (KernelRegistry lookups and the backends' context
//                 caches are internally thread-safe; no Engine lock is
//                 involved.)
//
// No thread ever holds two of these at once except eviction, which takes
// Slot::M briefly while holding CacheMutex; since no path acquires
// CacheMutex while holding Slot::M, that nesting cannot deadlock. Compiles
// and Runtime construction always happen outside every lock here; a
// backend builds a context under its own cache lock, which no thread
// holds while taking one of these.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"

#include "driver/Artifact.h"

using namespace porcupine;
using namespace porcupine::driver;

//===----------------------------------------------------------------------===//
// CompiledKernel: runtime pool
//===----------------------------------------------------------------------===//

CompiledKernel::RuntimeLease::~RuntimeLease() {
  if (!Owner || !RT)
    return;
  {
    std::lock_guard<std::mutex> L(Owner->PoolMutex);
    Owner->Idle.push_back(std::move(RT));
  }
  Owner->PoolAvailable.notify_one();
}

size_t CompiledKernel::runtimesBuilt() const {
  std::lock_guard<std::mutex> L(PoolMutex);
  return Built;
}

Expected<CompiledKernel::RuntimeLease> CompiledKernel::acquireRuntime() const {
  std::unique_lock<std::mutex> L(PoolMutex);
  while (true) {
    if (!Idle.empty()) {
      std::unique_ptr<Runtime> RT = std::move(Idle.back());
      Idle.pop_back();
      return RuntimeLease(this, std::move(RT));
    }
    if (Built < PoolSize) {
      // Reserve a pool slot, then build outside the lock: key generation
      // is the expensive part and must not serialize callers that only
      // need an already-idle runtime. The backend shares the context of
      // every live runtime on the same parameters.
      ++Built;
      L.unlock();
      auto RT = Compiler(Opts).instantiate({&Result.Program});
      if (!RT) {
        L.lock();
        --Built;
        L.unlock();
        // A waiter blocked on the pool would deadlock if every builder
        // failed silently; wake one so it can retry (and likely fail with
        // the same diagnostic, which is the correct outcome).
        PoolAvailable.notify_one();
        return RT.status();
      }
      return RuntimeLease(this,
                          std::make_unique<Runtime>(std::move(RT.take())));
    }
    PoolAvailable.wait(L);
  }
}

//===----------------------------------------------------------------------===//
// CompiledKernel: execution
//===----------------------------------------------------------------------===//

Expected<ExecuteOutcome>
CompiledKernel::execute(const std::vector<std::vector<uint64_t>> &Inputs)
    const {
  const quill::Program &P = Result.Program;
  Status S = checkInputs(P.NumInputs, P.VectorSize, Inputs);
  if (!S)
    return S;
  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  return Lease->runtime().execute(P, Inputs, P.VectorSize);
}

Expected<std::vector<ExecuteOutcome>> CompiledKernel::executeMany(
    const std::vector<std::vector<std::vector<uint64_t>>> &Batch) const {
  const quill::Program &P = Result.Program;
  std::vector<ExecuteOutcome> Outcomes;
  Outcomes.reserve(Batch.size());
  // Validate the whole batch before touching the pool so a bad item fails
  // fast and atomically — no partial encrypted work.
  for (size_t I = 0; I < Batch.size(); ++I) {
    Status S = checkInputs(P.NumInputs, P.VectorSize, Batch[I]);
    if (!S) {
      Status Tagged = Status::error(
          "execute", "batch item " + std::to_string(I) + " is malformed");
      Tagged.merge(S);
      return Tagged;
    }
  }
  if (Batch.empty())
    return Outcomes;

  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  for (size_t I = 0; I < Batch.size(); ++I) {
    auto Out = Lease->runtime().execute(P, Batch[I], P.VectorSize);
    if (!Out) {
      Status S = Status::error("execute",
                               "batch item " + std::to_string(I) + " failed");
      S.merge(Out.status());
      return S;
    }
    Outcomes.push_back(Out.take());
  }
  return Outcomes;
}

Expected<size_t> CompiledKernel::packedRowWidth() const {
  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  return Lease->runtime().slotCount();
}

Expected<ExecuteOutcome> CompiledKernel::executePacked(
    const std::vector<std::vector<uint64_t>> &PackedInputs) const {
  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  const Runtime &RT = Lease->runtime();
  return RT.execute(Result.Program, PackedInputs, RT.slotCount());
}

//===----------------------------------------------------------------------===//
// Engine: cache
//===----------------------------------------------------------------------===//

Expected<Engine::KernelHandle> Engine::get(const std::string &KernelName) {
  return getImpl(KernelName, EOpts.Defaults);
}

Expected<Engine::KernelHandle> Engine::get(const std::string &KernelName,
                                           const CompileOptions &Opts) {
  return getImpl(KernelName, Opts);
}

std::future<Expected<Engine::KernelHandle>>
Engine::compileAsync(const std::string &KernelName) {
  return compileAsync(KernelName, EOpts.Defaults);
}

Engine::~Engine() {
  // Drain before members die: queued tasks touch the cache and fulfil
  // their promises, so every outstanding future resolves here.
  if (AsyncPool)
    AsyncPool->shutdown();
}

ThreadPool &Engine::asyncPool() {
  std::call_once(AsyncPoolOnce, [this] {
    AsyncPool = std::make_unique<ThreadPool>(
        EOpts.AsyncCompileThreads ? EOpts.AsyncCompileThreads : 1);
  });
  return *AsyncPool;
}

std::future<Expected<Engine::KernelHandle>>
Engine::compileAsync(const std::string &KernelName,
                     const CompileOptions &Opts) {
  // The compile runs on the Engine's bounded pool through getImpl, i.e.
  // the exact cache path — misses coalesce with every concurrent
  // get()/compileAsync() of the same key, hits resolve at once, failures
  // surface through the future. A pool task blocking on a coalesced miss
  // is safe: the slot's owner is, by construction, a thread already
  // executing (it created the slot mid-getImpl), never a later queue
  // entry, so the wait always terminates.
  auto Prom = std::make_shared<std::promise<Expected<KernelHandle>>>();
  std::future<Expected<KernelHandle>> Fut = Prom->get_future();
  bool Queued = asyncPool().submit([this, Prom, KernelName, Opts](unsigned) {
    Prom->set_value(getImpl(KernelName, Opts));
  });
  if (!Queued)
    // Only possible once destruction has begun; resolve rather than leave
    // a broken promise.
    Prom->set_value(
        Status::error("engine", "engine is shutting down; compile of '" +
                                    KernelName + "' was dropped"));
  return Fut;
}

Expected<Engine::KernelHandle> Engine::getImpl(const std::string &KernelName,
                                               const CompileOptions &Opts) {
  // Resolve the name first so every spelling ("gx", "Gx") of one kernel
  // shares a cache entry keyed by the canonical spec name.
  auto Found = registry().find(KernelName);
  if (!Found)
    return Found.status();
  const kernels::KernelBundle *B = *Found;
  // '\x1f' (unit separator) cannot appear in a canonical key's field names
  // and is JSON-escaped inside the quoted function name, so the composite
  // key is unambiguous.
  const std::string Key = B->Spec.name() + '\x1f' + Opts.canonicalKey();

  std::shared_ptr<Slot> S;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> L(CacheMutex);
    auto It = ByKey.find(Key);
    if (It != ByKey.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Counters.Hits;
      S = It->second->second;
    } else {
      ++Counters.Misses;
      S = std::make_shared<Slot>();
      Lru.emplace_front(Key, S);
      ByKey[Key] = Lru.begin();
      Owner = true;
    }
  }

  if (!Owner) {
    // Ready now, or compiling on another thread: wait for the transition.
    std::unique_lock<std::mutex> SL(S->M);
    S->CV.wait(SL, [&] { return S->St != Slot::State::Compiling; });
    if (S->St == Slot::State::Ready)
      return S->Kernel;
    return S->Error;
  }

  // This thread owns the compile. Run it outside every lock.
  Compiler C(Opts, Registry);
  auto Res = C.compile(*B);

  KernelHandle Kernel;
  if (Res) {
    Kernel.reset(new CompiledKernel(Res.take(), Opts,
                                    compileFingerprint(B->Spec.name(), Opts),
                                    EOpts.RuntimePoolSize));
  }
  {
    std::lock_guard<std::mutex> SL(S->M);
    if (Kernel) {
      S->Kernel = Kernel;
      S->St = Slot::State::Ready;
    } else {
      S->Error = Res.status();
      S->St = Slot::State::Failed;
    }
  }
  S->CV.notify_all();
  {
    std::lock_guard<std::mutex> L(CacheMutex);
    if (Kernel) {
      ++Counters.Compiles;
      evictOverCapacity();
    } else {
      // Failures are not cached: drop the entry so a later get() retries.
      ++Counters.CompileFailures;
      auto It = ByKey.find(Key);
      if (It != ByKey.end() && It->second->second == S) {
        Lru.erase(It->second);
        ByKey.erase(It);
      }
    }
  }
  if (Kernel)
    return Kernel;
  return Res.status();
}

void Engine::evictOverCapacity() {
  // Walk from the cold end, skipping in-flight compiles (their owner
  // threads still need the slot in place; they finish soon and the next
  // insertion re-runs eviction).
  auto It = Lru.end();
  while (ByKey.size() > EOpts.CacheCapacity && It != Lru.begin()) {
    --It;
    bool Evictable;
    {
      std::lock_guard<std::mutex> SL(It->second->M);
      Evictable = It->second->St != Slot::State::Compiling;
    }
    if (!Evictable)
      continue;
    ByKey.erase(It->first);
    It = Lru.erase(It);
    ++Counters.Evictions;
  }
}

Engine::KernelHandle Engine::insertReady(const std::string &Key,
                                         KernelHandle K) {
  std::lock_guard<std::mutex> L(CacheMutex);
  auto It = ByKey.find(Key);
  if (It != ByKey.end()) {
    // Existing entry wins. If it is still compiling, hand back the freshly
    // loaded kernel without disturbing the in-flight compile.
    Lru.splice(Lru.begin(), Lru, It->second);
    std::lock_guard<std::mutex> SL(It->second->second->M);
    if (It->second->second->St == Slot::State::Ready)
      return It->second->second->Kernel;
    return K;
  }
  auto S = std::make_shared<Slot>();
  S->St = Slot::State::Ready;
  S->Kernel = K;
  Lru.emplace_front(Key, std::move(S));
  ByKey[Key] = Lru.begin();
  ++Counters.ArtifactLoads;
  evictOverCapacity();
  return K;
}

Expected<Engine::KernelHandle> Engine::loadArtifact(const std::string &Path) {
  auto Art = loadArtifactFile(Path);
  if (!Art)
    return Art.status();

  // The loaded kernel executes under the artifact's recorded execution
  // parameters and latency table, on top of this Engine's defaults for
  // everything else.
  CompileOptions Opts = EOpts.Defaults;
  Opts.RunSynthesis = false;
  Opts.Synthesis.PlainModulus = Art->PlainModulus;
  Opts.Synthesis.Latency = Art->Latency;
  Opts.ExecutionSeed = Art->ExecutionSeed;

  CompileResult R;
  R.KernelName = Art->Kernel;
  R.Program = std::move(Art->Program);
  R.FromSynthesis = Art->FromSynthesis;
  R.SealCode = Art->SealCode;
  for (const std::string &Note : Art->Notes)
    R.Notes.push_back({Severity::Note, "artifact", Note});
  R.Notes.push_back(
      {Severity::Note, "artifact", "loaded from artifact '" + Path + "'"});
  // Analyses, the cost estimate and the parameters are recomputed under
  // the recorded latency table and this Engine's backend, never trusted
  // from disk.
  Status Analyzed = Compiler(Opts, Registry).analyze(R);
  if (!Analyzed)
    return Analyzed;

  std::string OptionsKey =
      Art->OptionsKey.empty() ? Opts.canonicalKey() : Art->OptionsKey;
  std::string Fp = Art->Fingerprint.empty()
                       ? compileFingerprint(R.KernelName, Opts)
                       : Art->Fingerprint;
  KernelHandle K(new CompiledKernel(std::move(R), std::move(Opts),
                                    std::move(Fp), EOpts.RuntimePoolSize));
  const std::string Key = K->name() + '\x1f' + OptionsKey;
  return insertReady(Key, std::move(K));
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> L(CacheMutex);
  return Counters;
}

size_t Engine::size() const {
  std::lock_guard<std::mutex> L(CacheMutex);
  return ByKey.size();
}

void Engine::clear() {
  std::lock_guard<std::mutex> L(CacheMutex);
  Lru.clear();
  ByKey.clear();
  Counters = EngineStats();
}
