//===- support/Random.h - Deterministic PRNG --------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (xoshiro256**) used everywhere a random
/// stream is needed: BFV key/noise sampling, synthesis input-output example
/// generation, Schwartz-Zippel counterexample search, and tests. Determinism
/// given a seed keeps tests and experiments reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_SUPPORT_RANDOM_H
#define PORCUPINE_SUPPORT_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace porcupine {

/// xoshiro256** PRNG. Not cryptographically secure; the BFV library uses it
/// for reproducible experiments (a production HE library would use a CSPRNG,
/// which affects security but not the functional or performance behavior
/// this reproduction studies).
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next 64 uniformly random bits.
  uint64_t next();

  /// Returns a uniform integer in [0, Bound). \p Bound must be nonzero.
  uint64_t below(uint64_t Bound);

  /// Returns a uniform integer in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi);

  /// Returns a vector of \p Count uniform integers in [0, Bound).
  std::vector<uint64_t> vectorBelow(uint64_t Bound, size_t Count);

  /// Samples from a centered binomial-ish ternary distribution {-1, 0, 1},
  /// the standard secret/noise distribution for BFV-style schemes.
  int64_t ternary();

  /// Samples a small centered "Gaussian-like" error via a binomial sum;
  /// standard deviation roughly 3.2 (the HE-standard sigma). Values lie in
  /// [-MaxCenteredError, MaxCenteredError].
  int64_t centeredError();
  static constexpr uint64_t MaxCenteredError = 21;

private:
  uint64_t State[4];
};

/// Base seed shared by all randomized tests: the value of the
/// PORCUPINE_TEST_SEED environment variable when set (decimal), otherwise 0.
/// Parsed once and cached.
uint64_t testSeedBase();

/// Seed for one randomized test stream: testSeedBase() + \p Offset. With the
/// default base of 0 this equals the historical fixed per-test seed, so runs
/// stay deterministic unless the environment deliberately overrides them.
uint64_t testSeed(uint64_t Offset);

} // namespace porcupine

#endif // PORCUPINE_SUPPORT_RANDOM_H
