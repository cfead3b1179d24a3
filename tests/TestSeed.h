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
/// mutateBytes() is the seeded byte mutator of the parser fuzz tests, and
/// randomProgram() the seeded program generator of the property tests.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_TESTS_TESTSEED_H
#define PORCUPINE_TESTS_TESTSEED_H

#include "quill/Program.h"
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

/// A seeded random well-formed straight-line program of \p NumInstrs
/// instructions over 1-3 inputs of \p Width slots, with one splat constant
/// in [-3, 3] and one full-width constant with values in [-5, 5].
inline quill::Program randomProgram(Rng &R, size_t Width, int NumInstrs) {
  using namespace quill;
  Program P;
  P.NumInputs = 1 + static_cast<int>(R.below(3));
  P.VectorSize = Width;
  P.internConstant(PlainConstant{{static_cast<int64_t>(R.below(7)) - 3}});
  std::vector<int64_t> Vec(Width);
  for (auto &V : Vec)
    V = static_cast<int64_t>(R.below(11)) - 5;
  P.internConstant(PlainConstant{Vec});
  for (int K = 0; K < NumInstrs; ++K) {
    int NumVals = P.numValues();
    int A = static_cast<int>(R.below(NumVals));
    int B = static_cast<int>(R.below(NumVals));
    int Pt = static_cast<int>(R.below(P.Constants.size()));
    switch (R.below(7)) {
    case 0:
      P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
      break;
    case 1:
      P.append(Instr::ctCt(Opcode::SubCtCt, A, B));
      break;
    case 2:
      P.append(Instr::ctCt(Opcode::MulCtCt, A, B));
      break;
    case 3:
      P.append(Instr::ctPt(Opcode::AddCtPt, A, Pt));
      break;
    case 4:
      P.append(Instr::ctPt(Opcode::SubCtPt, A, Pt));
      break;
    case 5:
      P.append(Instr::ctPt(Opcode::MulCtPt, A, Pt));
      break;
    case 6: {
      int Amount = static_cast<int>(R.below(2 * Width - 1)) -
                   static_cast<int>(Width - 1);
      if (Amount % static_cast<int>(Width) == 0)
        Amount = 1;
      P.append(Instr::rot(A, Amount));
      break;
    }
    }
  }
  return P;
}

} // namespace porcupine

#endif // PORCUPINE_TESTS_TESTSEED_H
