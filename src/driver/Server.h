//===- driver/Server.h - Multi-tenant serving tier --------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-serving subsystem layered on driver::Engine: the piece a
/// deployment actually runs. A Server owns
///
///   * shard-per-core Engines with a deterministic tenant -> shard map
///     (driver/TenantContext.h), so one tenant's compiles and executions
///     never contend with another shard's;
///   * a bounded per-shard request queue with deadline-aware admission
///     control — submit() rejects with a Status (queue full, deadline
///     unmeetable, unknown kernel, stopped) instead of growing without
///     bound, and queued requests whose deadline passes fail instead of
///     executing late;
///   * cross-request ciphertext batching (driver/Batcher.h): each shard
///     worker fills the free slot windows of one ciphertext with queued
///     requests for the same (tenant, kernel) before issuing a single
///     encrypted execution, with a flush timer so a lone request still
///     ships within ServerOptions::FlushMicros;
///   * per-tenant key isolation: every tenant executes under a
///     tenant-derived ExecutionSeed, giving it its own BFV keys and its
///     own Engine cache entries, behind an LRU TenantContextCache (the
///     BFV context of a parameter set is the backend's, shared by all);
///   * Prometheus-text metrics (metricsText()): queue depth, admission
///     rejects by reason, batch fill factor, per-kernel p50/p95/p99.
///
///   driver::Server S;                       // shards = hardware cores
///   auto R = S.call({"dot product", "tenant-a", {{1,2,3,4,5,6,7,8},
///                                               {1,1,1,1,1,1,1,1}}});
///   // R->Outputs[0] == 36; concurrent callers for the same tenant and
///   // kernel share ciphertexts automatically.
///
/// Responses are deterministic regardless of batching: every group, a lone
/// request included, runs through CompiledKernel::executePacked() and is
/// sliced out of its window with the slots the kernel's layout leaves
/// unconstrained zeroed. Execution runs on the backend named by the Engine's
/// CompileOptions (encrypted BFV by default; the keyless dry-run backend
/// serves the same requests with plaintext semantics).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_DRIVER_SERVER_H
#define PORCUPINE_DRIVER_SERVER_H

#include "driver/Batcher.h"
#include "driver/Engine.h"
#include "driver/Metrics.h"
#include "driver/TenantContext.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace porcupine {
namespace driver {

/// Server configuration.
struct ServerOptions {
  /// Engine shards (each with its own compile cache and worker thread);
  /// 0 = one per hardware core.
  unsigned NumShards = 0;
  /// Maximum queued requests per shard; submissions beyond this are
  /// rejected at admission (backpressure, never unbounded growth).
  size_t QueueCapacity = 256;
  /// Upper bound on requests batched into one ciphertext (the kernel's
  /// row capacity may cap it lower). 1 disables cross-request batching.
  size_t MaxBatch = 64;
  /// How long a shard waits for more batchable requests before flushing a
  /// partial batch; the latency a lone request pays for batching.
  uint64_t FlushMicros = 2000;
  /// Deadline applied to requests that do not carry one; 0 = none.
  uint64_t DefaultDeadlineMicros = 0;
  /// LRU capacity of the per-tenant context cache.
  size_t TenantCacheCapacity = 8;
  /// Per-shard Engine configuration. Engine.Defaults is the base every
  /// tenant's seed is layered onto.
  EngineOptions Engine;
};

/// One serving request.
struct Request {
  /// Kernel name (resolved like Engine::get: exact, prefix, substring).
  std::string Kernel;
  /// Tenant id: selects the shard, the BFV keys, and the batching group.
  std::string Tenant = "default";
  /// One vector per kernel input, each at most VectorSize wide.
  RequestInputs Inputs;
  /// Relative deadline from submission in microseconds; 0 = use
  /// ServerOptions::DefaultDeadlineMicros (0 there = no deadline).
  uint64_t DeadlineMicros = 0;
};

/// One serving response (successful executions only; failures travel as
/// Status through the Expected).
struct Response {
  /// VectorSize-wide outputs with unconstrained slots zeroed.
  std::vector<uint64_t> Outputs;
  int NoiseBudgetBits = -1;
  size_t PolyDegree = 0;
  /// True when the request shared a ciphertext with at least one other.
  bool Batched = false;
  /// Requests served by the ciphertext this one rode in (>= 1).
  size_t BatchSize = 1;
  /// Time from submission to execution start / to response, microseconds.
  uint64_t QueueUs = 0;
  uint64_t TotalUs = 0;
  /// Fingerprint of the (kernel, tenant options) the request executed
  /// under; distinct per tenant by construction.
  std::string KernelFingerprint;
};

/// Thread-safe serving front end. Construction starts the shard workers;
/// stop() (or the destructor) fails pending requests and joins them. Not
/// copyable or movable.
class Server {
public:
  explicit Server(ServerOptions Options = {},
                  const kernels::KernelRegistry *Registry = nullptr);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Admission-controlled asynchronous submission. An error return means
  /// the request was rejected synchronously (queue full, unmeetable
  /// deadline, unknown kernel, malformed inputs, stopped server) and was
  /// never queued; otherwise the future resolves when the request is
  /// served, fails, or its deadline expires in queue.
  Expected<std::future<Expected<Response>>> submit(Request R);

  /// submit() + wait: the one-call serving path.
  Expected<Response> call(Request R);

  /// Fails every pending request, joins the shard workers, and rejects
  /// later submissions. Idempotent.
  void stop();

  /// Prometheus text-format exposition of the serving metrics (see
  /// docs/API.md for the name table).
  std::string metricsText() const;

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// The shard \p Tenant maps to (deterministic).
  unsigned shardOf(const std::string &Tenant) const;
  /// Total queued requests across shards (snapshot).
  size_t queueDepth() const;
  const ServerOptions &options() const { return SOpts; }
  const TenantContextCache &tenantCache() const { return Tenants; }
  const kernels::KernelRegistry &registry() const {
    return Registry ? *Registry : kernels::KernelRegistry::builtin();
  }

private:
  using Clock = std::chrono::steady_clock;

  /// One queued request.
  struct Pending {
    Request Req;
    std::string SpecName; ///< Canonical kernel name (group key half).
    std::promise<Expected<Response>> Prom;
    Clock::time_point Enqueued;
    Clock::time_point Deadline{};
    bool HasDeadline = false;
  };

  /// Worker-local per-(tenant, kernel) execution state, built on first
  /// use and cached for the shard's lifetime.
  struct PreparedKernel {
    std::shared_ptr<const TenantContext> Tenant;
    Engine::KernelHandle Kernel;
    BatchPlan Plan;
  };

  struct Shard {
    std::unique_ptr<Engine> E;
    std::thread Worker;
    mutable std::mutex M;
    std::condition_variable CV;
    std::deque<std::unique_ptr<Pending>> Queue; ///< Arrival order.
    bool Stopping = false;
    /// EWMA of batch service time per kernel, microseconds; read by
    /// admission control. Guarded by M.
    std::map<std::string, double> EwmaUs;
    /// Prepared kernels keyed by tenant-options fingerprint. Touched only
    /// by this shard's worker thread; no lock.
    std::map<std::string, PreparedKernel> Prepared;
  };

  void shardLoop(Shard &Sh);
  /// Tenant context + Engine::get + batch plan for one request's group.
  /// Runs outside the shard lock (may compile, and the plan builds the
  /// kernel's first runtime).
  Expected<PreparedKernel *> prepare(Shard &Sh, const Pending &P);
  /// Pops and fails every queued request whose deadline has passed.
  /// Caller holds Sh.M.
  void expireLocked(Shard &Sh, Clock::time_point Now);
  /// Removes up to \p Limit requests matching (tenant, kernel) of \p Head
  /// from the queue, in arrival order. Caller holds Sh.M.
  std::vector<std::unique_ptr<Pending>>
  takeGroupLocked(Shard &Sh, const Pending &Head, size_t Limit);
  /// Executes one group and fulfils its promises. Runs outside Sh.M.
  void serveGroup(Shard &Sh, PreparedKernel &PK,
                  std::vector<std::unique_ptr<Pending>> Group);
  void observeLatency(const std::string &Kernel, uint64_t Us);

  ServerOptions SOpts;
  const kernels::KernelRegistry *Registry = nullptr;
  TenantContextCache Tenants;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<bool> Stopped{false};
  std::mutex StopMutex; ///< Serializes stop() callers.

  // Metrics (monotonic counters; see metricsText()).
  std::atomic<uint64_t> RequestsTotal{0};
  std::atomic<uint64_t> RejectsQueueFull{0};
  std::atomic<uint64_t> RejectsDeadline{0};
  std::atomic<uint64_t> RejectsUnknown{0};
  std::atomic<uint64_t> RejectsMalformed{0};
  std::atomic<uint64_t> RejectsStopped{0};
  std::atomic<uint64_t> DeadlineExpired{0};
  std::atomic<uint64_t> ServedTotal{0};
  std::atomic<uint64_t> ExecFailures{0};
  std::atomic<uint64_t> BatchesTotal{0};
  /// Requests that shared a ciphertext with at least one other request.
  std::atomic<uint64_t> BatchedRequestsTotal{0};
  /// Windows used / available over executed ciphertexts; fill factor =
  /// FillUsedTotal / FillCapacityTotal.
  std::atomic<uint64_t> FillUsedTotal{0};
  std::atomic<uint64_t> FillCapacityTotal{0};

  mutable std::mutex HistMutex; ///< Guards map shape; histograms lock
                                ///< themselves.
  std::map<std::string, LatencyHistogram> KernelHist;
};

} // namespace driver
} // namespace porcupine

#endif // PORCUPINE_DRIVER_SERVER_H
