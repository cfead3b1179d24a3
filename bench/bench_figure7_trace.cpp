//===- bench/bench_figure7_trace.cpp - Paper Figure 7 ---------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces paper Figure 7: a slot-level trace of the optimized Gx
/// schedule over a packed 5x5 image. Each instruction's result ciphertext
/// is decrypted and printed as a 5x5 grid so the data movement (vertical
/// smoothing, then the horizontal difference) is visible, exactly like the
/// figure's purple/red slot walk-through.
///
//===----------------------------------------------------------------------===//

#include "backend/BfvExecutor.h"
#include "kernels/Kernels.h"
#include "quill/Program.h"
#include "support/Random.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::kernels;
using namespace porcupine::quill;

namespace {

void printGrid(const char *Label, const std::vector<uint64_t> &Slots,
               uint64_t T) {
  std::printf("%s\n", Label);
  for (int R = 0; R < ImageGeom::Dim; ++R) {
    std::printf("    ");
    for (int C = 0; C < ImageGeom::Dim; ++C) {
      int64_t V = static_cast<int64_t>(Slots[ImageGeom::index(R, C)]);
      if (V > static_cast<int64_t>(T / 2))
        V -= T; // Show negatives as negatives.
      std::printf("%6lld", static_cast<long long>(V));
    }
    std::printf("\n");
  }
}

} // namespace

int main() {
  KernelBundle B = gxKernel();
  const Program &P = B.Synthesized;

  std::printf("Figure 7: slot-level trace of the optimized Gx kernel\n");
  std::printf("(each step decrypts the intermediate ciphertext; data is the "
              "3x3 interior, border is zero padding)\n\n");

  BfvContext Ctx = BfvContext::forMultDepth(1);
  Rng R(3);
  BfvExecutor Exec(Ctx, R, {&P});
  uint64_t T = Ctx.plainModulus();

  // A recognizable ramp image on the 3x3 interior.
  std::vector<uint64_t> Img(ImageGeom::Slots, 0);
  uint64_t V = 1;
  for (int Row = 1; Row < ImageGeom::Dim - 1; ++Row)
    for (int Col = 1; Col < ImageGeom::Dim - 1; ++Col)
      Img[ImageGeom::index(Row, Col)] = V++* 10;

  printGrid("input image (c0):", Img, T);

  std::vector<std::vector<uint64_t>> Trace;
  Exec.run(P, {Exec.encryptInput(Img)}, [&](const Ciphertext &Ct) {
    Trace.push_back(Exec.decryptOutput(Ct, ImageGeom::Slots));
  });
  for (size_t K = 0; K < P.Instructions.size(); ++K) {
    const Instr &I = P.Instructions[K];
    char Label[128];
    if (I.Op == Opcode::RotCt)
      std::snprintf(Label, sizeof(Label), "c%d = rot-ct c%d %d",
                    P.valueOf(K), I.Src0, I.Rot);
    else
      std::snprintf(Label, sizeof(Label), "c%d = %s c%d c%d", P.valueOf(K),
                    opcodeName(I.Op), I.Src0, I.Src1);
    printGrid(Label, Trace[K], T);
  }

  std::printf("\nfinal grid = Gx response on the interior (east smoothed "
              "column minus west smoothed column)\n");
  return 0;
}
