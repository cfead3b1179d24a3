//===- tests/TestSeed.h - Reproducible seeds for randomized tests -*- C++ -*-=//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between support/Random.h's PORCUPINE_TEST_SEED plumbing and the test
/// harness: property tests seed their Rng via porcupine::testSeed(Offset) and
/// declare a SeedReporter so a failure prints the exact seed to replay with
///
///   PORCUPINE_TEST_SEED=<base> ctest -R <suite> --output-on-failure
///
/// mutateBytes() is the seeded byte mutator of the parser fuzz tests.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_TESTS_TESTSEED_H
#define PORCUPINE_TESTS_TESTSEED_H

#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace porcupine {

/// Declared at the top of a randomized test body; if the test has failed by
/// the time the body exits, logs the seed that produced the failure.
class SeedReporter {
public:
  explicit SeedReporter(uint64_t Seed) : Seed(Seed) {}
  SeedReporter(const SeedReporter &) = delete;
  SeedReporter &operator=(const SeedReporter &) = delete;
  ~SeedReporter() {
    if (::testing::Test::HasFailure())
      std::fprintf(stderr,
                   "note: failing RNG seed was %llu (PORCUPINE_TEST_SEED base "
                   "%llu); rerun with PORCUPINE_TEST_SEED set to reproduce or "
                   "perturb\n",
                   static_cast<unsigned long long>(Seed),
                   static_cast<unsigned long long>(testSeedBase()));
  }

private:
  uint64_t Seed;
};

/// One seeded mutation of \p Text for the parser fuzz tests: truncate it,
/// substitute or insert one byte drawn from \p Alphabet, or splice a slice
/// of \p Donor over a slice of it.
inline std::string mutateBytes(Rng &R, std::string Text,
                               const std::string &Donor,
                               const std::string &Alphabet) {
  switch (R.below(4)) {
  case 0: // truncate
    Text.resize(R.below(Text.size() + 1));
    break;
  case 1: // substitute one byte
    if (!Text.empty())
      Text[R.below(Text.size())] = Alphabet[R.below(Alphabet.size())];
    break;
  case 2: // insert one byte
    Text.insert(R.below(Text.size() + 1), 1,
                Alphabet[R.below(Alphabet.size())]);
    break;
  default: { // splice
    size_t From = R.below(Donor.size() + 1);
    size_t Len = R.below(Donor.size() - From + 1);
    size_t At = R.below(Text.size() + 1);
    Text.replace(At, R.below(Text.size() - At + 1), Donor, From, Len);
    break;
  }
  }
  return Text;
}

} // namespace porcupine

#endif // PORCUPINE_TESTS_TESTSEED_H
