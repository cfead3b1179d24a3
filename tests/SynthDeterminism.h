//===- tests/SynthDeterminism.h - Thread-count determinism check -*- C++ -*-=//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check that synthesis does not depend on the thread count: a bundled
/// kernel synthesized sequentially and with four portfolio threads must
/// give byte-identical programs (the portfolio's lowest-candidate-index
/// tie-break). synth_parallel_test runs it on the kernels that synthesize
/// in well under a second, synth_test on the ones that take seconds.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_TESTS_SYNTHDETERMINISM_H
#define PORCUPINE_TESTS_SYNTHDETERMINISM_H

#include "kernels/Kernels.h"
#include "quill/Program.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

namespace porcupine {

inline synth::SynthesisOptions determinismOptions(int Threads) {
  synth::SynthesisOptions Opts;
  Opts.TimeoutSeconds = 60.0; // Generous: timeouts void the determinism
                              // guarantee by design.
  Opts.MaxComponents = 8;
  Opts.Seed = 7;
  Opts.Threads = Threads;
  return Opts;
}

/// Synthesizes \p B sequentially and with four portfolio threads and
/// checks the results are byte-identical, returning the two stats blocks
/// for further assertions.
inline void expectSameProgram(const kernels::KernelBundle &B,
                              synth::SynthesisStats *Seq = nullptr,
                              synth::SynthesisStats *Par = nullptr) {
  auto R1 = synth::synthesize(B.Spec, B.Sketch, determinismOptions(1));
  auto R4 = synth::synthesize(B.Spec, B.Sketch, determinismOptions(4));
  ASSERT_TRUE(R1.Found) << B.Spec.name() << " must synthesize sequentially";
  ASSERT_TRUE(R4.Found) << B.Spec.name() << " must synthesize in parallel";
  EXPECT_EQ(quill::printProgram(R1.Prog), quill::printProgram(R4.Prog))
      << B.Spec.name() << ": thread count changed the synthesized program";
  EXPECT_EQ(R1.Stats.ComponentsUsed, R4.Stats.ComponentsUsed);
  EXPECT_DOUBLE_EQ(R1.Stats.FinalCost, R4.Stats.FinalCost);
  if (Seq)
    *Seq = R1.Stats;
  if (Par)
    *Par = R4.Stats;
}

} // namespace porcupine

#endif // PORCUPINE_TESTS_SYNTHDETERMINISM_H
