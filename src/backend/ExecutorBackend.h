//===- backend/ExecutorBackend.h - Pluggable execution backends -*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution seam of the toolchain: an abstract backend interface that
/// lets one compiled Quill program run on interchangeable runtimes — the
/// in-tree BFV evaluator, real SEAL when built in, or a keyless dry-run
/// interpreter that charges cost-model latencies. Mirrors HEIR's
/// multi-backend lowering and he-vectorizer's HEBackend idiom: the driver,
/// Engine, and Server hold a `backend::Executor` by interface and never name
/// a concrete runtime.
///
/// Two-level shape:
///
///   - `ExecutorBackend` is the registered factory/descriptor: a name (the
///     `CompileOptions::Backend` key), capability bits, how it builds a
///     parameter set (what the noise bound prices), and
///     `createExecutor()`. It owns what it builds per parameter set (a
///     BFV context, a SEALContext): one immutable copy, shared by every
///     session built from the same parameters.
///   - `Executor` is one instantiated session for a fixed program set:
///     encrypt/run/decrypt/noiseBudget over opaque `Value` handles (and
///     decryptWithBudget, both read-outs in one call), with an optional
///     hook on every instruction of a run.
///
/// Values are deliberately type-erased (`backend::Value`): a BFV session
/// hands out real ciphertexts, the dry-run session hands out slot vectors,
/// and callers cannot tell the difference — which is exactly what makes
/// cross-backend differential testing (byte-equal decrypted outputs) the
/// correctness oracle it is.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_EXECUTORBACKEND_H
#define PORCUPINE_BACKEND_EXECUTORBACKEND_H

#include "bfv/BfvContext.h"
#include "quill/CostModel.h"
#include "quill/Noise.h"
#include "quill/Program.h"
#include "support/Status.h"

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace porcupine {

/// The rotation steps a program performs (sorted, deduplicated, signed).
std::vector<int> requiredRotations(const quill::Program &P);

/// The union of rotation steps across a program set (sorted, deduplicated)
/// — exactly the Galois keys a key-based runtime serving that set must hold.
std::vector<int>
requiredRotations(const std::vector<const quill::Program *> &Programs);

namespace backend {

/// An opaque per-backend execution value (a ciphertext, a slot vector, ...).
/// Cheap to copy (shared immutable payload). Callers round-trip Values
/// through one Executor; mixing Values across sessions is a programming
/// error caught by the payload-type assert in get().
class Value {
public:
  Value() = default;

  template <class T> static Value wrap(T Payload) {
    auto H = std::make_shared<Holder<T>>();
    H->Payload = std::move(Payload);
    return Value(std::move(H));
  }

  template <class T> const T &get() const {
    const auto *H = dynamic_cast<const Holder<T> *>(Impl.get());
    assert(H && "backend::Value holds a different payload type");
    return H->Payload;
  }

  explicit operator bool() const { return Impl != nullptr; }

private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <class T> struct Holder : HolderBase {
    T Payload;
  };

  explicit Value(std::shared_ptr<const HolderBase> Impl)
      : Impl(std::move(Impl)) {}

  std::shared_ptr<const HolderBase> Impl;
};

/// What a backend can and cannot do; the driver gates behavior on these
/// bits instead of on backend names.
struct BackendCapabilities {
  /// Values are real ciphertexts: outputs come from decryption,
  /// noiseBudget() measures invariant noise, and rotations need Galois
  /// keys generated at instantiation — so running a program whose
  /// rotations were not in the instantiate() set must fail.
  bool Encrypted = true;
};

/// Everything a backend needs to instantiate one execution session.
struct SessionSpec {
  /// The programs this session must be able to run (Galois keys cover
  /// exactly this set's rotations).
  std::vector<const quill::Program *> Programs;
  /// The encryption parameters to build, as selectParameters() chose them
  /// for Programs, including the plaintext modulus the programs were
  /// compiled under. Backends read the ring and both moduli from here and
  /// decide nothing themselves; the dry-run backend takes its row geometry
  /// (N/2) from PolyDegree.
  BfvParams Params;
  /// Seed for execution-side randomness (keys, encryption noise).
  uint64_t ExecutionSeed = 1;
  /// The latency table the programs were compiled under; the dry-run
  /// backend charges its runs with it.
  quill::LatencyTable Latency;
};

/// The immutable state a backend builds per parameter set (a BFV context,
/// a SEALContext), shared by every session whose parameters map to the
/// same \p Key. A state is built on first use under the lock and held
/// weakly: it lives as long as some session holds it.
template <class Key, class State> class SharedPerParams {
public:
  /// The live state for \p K, else the one \p Build returns, registered.
  template <class BuildFn>
  std::shared_ptr<const State> get(const Key &K, BuildFn Build) {
    std::lock_guard<std::mutex> L(M);
    if (std::shared_ptr<const State> Live = Cache[K].lock())
      return Live;
    // Forget the states no session holds any more before adding one.
    for (auto It = Cache.begin(); It != Cache.end();)
      It = It->second.expired() ? Cache.erase(It) : std::next(It);
    std::shared_ptr<const State> Built = Build();
    Cache[K] = Built;
    return Built;
  }

private:
  std::mutex M;
  std::map<Key, std::weak_ptr<const State>> Cache;
};

/// One instantiated execution session: keys (if any) and evaluation state
/// for a fixed program set. Not thread-safe; the Engine leases each
/// Executor to one thread at a time.
class Executor {
public:
  virtual ~Executor() = default;

  /// Encrypts (or wraps, for plaintext backends) one input vector of at
  /// most slotCount() values, placed in batching row 0.
  virtual Expected<Value> encrypt(const std::vector<uint64_t> &Values) const = 0;

  /// Called after each instruction of run() with the value it produced;
  /// the slot traces of differential tests decrypt it.
  using InstrHook = std::function<void(const Value &)>;

  /// Runs \p P over session values, returning the result value, and calls
  /// \p AfterInstr (when set) after every instruction.
  virtual Expected<Value> run(const quill::Program &P,
                              const std::vector<Value> &Inputs,
                              const InstrHook &AfterInstr = nullptr) const = 0;

  /// Decrypts (or unwraps) a result and returns the first \p Width slots.
  virtual std::vector<uint64_t> decrypt(const Value &V, size_t Width) const = 0;

  /// Remaining invariant noise budget in bits; 0 on backends whose
  /// capabilities say Encrypted is false.
  virtual double noiseBudget(const Value &V) const = 0;

  /// decrypt() and noiseBudget() of one value in one call. The default
  /// makes the two calls; a backend that reads both from one pass over the
  /// value ("bfv") overrides it.
  struct Decrypted {
    std::vector<uint64_t> Slots;
    double NoiseBudgetBits = 0.0;
  };
  virtual Decrypted decryptWithBudget(const Value &V, size_t Width) const {
    return {decrypt(V, Width), noiseBudget(V)};
  }

  /// Width of one batching row in this session.
  virtual size_t slotCount() const = 0;
  /// Ring dimension (0 when the backend has no polynomial ring).
  virtual size_t polyDegree() const = 0;
  /// Plaintext modulus arithmetic is performed under.
  virtual uint64_t plainModulus() const = 0;

  /// Cumulative cost-model latency (µs) this session has charged for its
  /// runs. Real backends spend wall-clock instead and report 0; the
  /// dry-run backend prices each run under SessionSpec::Latency and
  /// accumulates it here, so callers can observe what an execution
  /// *would* have cost.
  virtual double chargedLatencyUs() const { return 0.0; }
};

/// A registered execution backend: naming, capabilities, and the session
/// factory. Implementations are shared across threads freely: the only
/// state they keep is what they build per parameter set, behind a
/// SharedPerParams lock.
class ExecutorBackend {
public:
  virtual ~ExecutorBackend() = default;

  /// Registry key; also the value of `CompileOptions::Backend` and part of
  /// every compile fingerprint (the Engine cache never mixes backends).
  virtual std::string name() const = 0;

  virtual BackendCapabilities capabilities() const = 0;

  /// The calibrated default latency table, the same on every backend
  /// (perfbench prices its baseline costs with it). Compiles price with
  /// `CompileOptions::Synthesis.Latency`, which defaults to this table.
  quill::LatencyTable latencyTable() const { return quill::LatencyTable{}; }

  /// How this backend builds \p Params, in the numbers the static noise
  /// bound prices (quill/Noise.h). The default is BfvContext(Params), which
  /// "bfv" builds and "dryrun" mirrors. selectParameters() replaces the
  /// plaintext modulus with the session's.
  virtual quill::NoiseParams noiseParams(const BfvParams &Params) const;

  /// Instantiates one execution session over the backend's shared state
  /// for Spec.Params, building it if no live session holds it; keys are
  /// the session's own. Anything the caller can get wrong (unsupported
  /// modulus, program wider than a batching row) returns a failed Expected
  /// with stage "execute".
  virtual Expected<std::unique_ptr<Executor>>
  createExecutor(const SessionSpec &Spec) const = 0;
};

/// A name-keyed set of backends. `builtin()` holds every backend compiled
/// into this build ("bfv", "dryrun", and "seal" under PORCUPINE_WITH_SEAL);
/// embedders can also build their own registry and `add()` custom backends.
class BackendRegistry {
public:
  BackendRegistry() = default;

  /// The process-wide registry of bundled backends.
  static const BackendRegistry &builtin();

  /// Registers \p B under B->name(), replacing any previous backend with
  /// the same name.
  void add(std::unique_ptr<ExecutorBackend> B);

  /// Looks a backend up by exact name; nullptr when absent.
  const ExecutorBackend *find(const std::string &Name) const;

  /// Registered names, sorted (for error messages and tooling).
  std::vector<std::string> names() const;

  /// The sorted names joined with ", " — the "available: ..." tail of
  /// unknown-backend diagnostics.
  std::string namesCsv() const;

private:
  std::vector<std::unique_ptr<ExecutorBackend>> Backends;
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_BACKEND_EXECUTORBACKEND_H
