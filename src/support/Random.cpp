//===- support/Random.cpp - Deterministic PRNG ----------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"

#include "support/Error.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <string>

using namespace porcupine;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ull;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

Rng::Rng(uint64_t Seed) {
  uint64_t S = Seed;
  for (auto &Word : State)
    Word = splitMix64(S);
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::below(uint64_t Bound) {
  assert(Bound != 0 && "below() requires a nonzero bound");
  // Rejection sampling to avoid modulo bias.
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "range() requires Lo <= Hi");
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  if (Span == 0) // Full 64-bit range.
    return static_cast<int64_t>(next());
  return Lo + static_cast<int64_t>(below(Span));
}

std::vector<uint64_t> Rng::vectorBelow(uint64_t Bound, size_t Count) {
  std::vector<uint64_t> Out(Count);
  for (auto &V : Out)
    V = below(Bound);
  return Out;
}

int64_t Rng::ternary() {
  // below(3) with its bound a constant: the rejection threshold
  // (2^64 - 3) mod 3 is 1, and the remainder by 3 compiles to a multiply.
  for (;;) {
    uint64_t R = next();
    if (R >= 1)
      return static_cast<int64_t>(R % 3) - 1;
  }
}

uint64_t porcupine::testSeedBase() {
  static const uint64_t Base = [] {
    const char *Env = std::getenv("PORCUPINE_TEST_SEED");
    if (!Env || !*Env)
      return uint64_t{0};
    // A malformed seed that silently fell back to 0 (or saturated) would make
    // a seed sweep re-run a stream it did not claim to, so accept only plain
    // digits within uint64 range. strtoull alone is too lenient: it skips
    // whitespace, accepts +/-, and saturates on overflow.
    for (const char *P = Env; *P; ++P)
      if (*P < '0' || *P > '9')
        fatalError(
            std::string("PORCUPINE_TEST_SEED is not a plain decimal number: '") +
            Env + "'");
    errno = 0;
    uint64_t Value = std::strtoull(Env, nullptr, 10);
    if (errno == ERANGE)
      fatalError(std::string("PORCUPINE_TEST_SEED overflows uint64: '") + Env +
                 "'");
    return Value;
  }();
  return Base;
}

uint64_t porcupine::testSeed(uint64_t Offset) { return testSeedBase() + Offset; }

int64_t Rng::centeredError() {
  // Sum of 42 fair bits minus 21: binomial approximation of a discrete
  // Gaussian with sigma = sqrt(42)/2 ~= 3.24, matching the HE-standard
  // error parameter sigma = 3.2. The sum is the population count of the
  // low 42 bits of one draw, counted in SWAR steps: the baseline x86-64
  // target has no popcnt instruction, and __builtin_popcountll would call
  // into libgcc.
  uint64_t Bits = next() & ((uint64_t(1) << 42) - 1);
  Bits -= (Bits >> 1) & 0x5555555555555555ull;
  Bits = (Bits & 0x3333333333333333ull) + ((Bits >> 2) & 0x3333333333333333ull);
  Bits = (Bits + (Bits >> 4)) & 0x0f0f0f0f0f0f0f0full;
  uint64_t Count = (Bits * 0x0101010101010101ull) >> 56;
  return static_cast<int64_t>(Count) -
         static_cast<int64_t>(MaxCenteredError);
}
