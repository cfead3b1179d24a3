//===- bench/bench_bfv_microbench.cpp - BFV primitive latencies -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times every evaluator primitive the cost model prices (add, multiply,
/// relinearize, rotate, ...), encryption and the read-outs (decrypt, the
/// noise meter, and both from one pass), plus the kernels underneath them
/// (NTT, fast base conversion, key-switch inner product, scale-and-round)
/// on the depth-1 serving parameters, and prints one JSON object, naming
/// the path (AVX-512 IFMA or scalar) the host ran its transforms,
/// pointwise kernels and conversions on.
/// After touching the BFV hot paths, compare its numbers with a run at the
/// parent commit on the same host; perfbench's per-layer bfv.* and math.*
/// metrics time the same primitives. quill::LatencyTable's defaults were
/// rounded from an earlier run of it (quill/CostModel.h).
///
/// Usage: bench_bfv_microbench [--repeats N]
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bfv/BatchEncoder.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace porcupine;

namespace {

/// Median of \p Repeats timings of \p Fn, in microseconds.
template <typename FnT> double medianMicros(int Repeats, FnT Fn) {
  std::vector<double> Times;
  Times.reserve(Repeats);
  for (int I = 0; I < Repeats; ++I) {
    Stopwatch W;
    Fn();
    Times.push_back(W.micros());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  int Repeats = bench::argInt(Argc, Argv, "--repeats", 25);

  BfvContext Ctx = BfvContext::forMultDepth(1);
  Rng R(7);
  KeyGenerator Keygen(Ctx, R);
  PublicKey Pk = Keygen.createPublicKey();
  Encryptor Enc(Ctx, Pk, R);
  Evaluator Eval(Ctx);
  BatchEncoder Encoder(Ctx);
  Decryptor Dec(Ctx, Keygen.secretKey());
  RelinKeys Relin = Keygen.createRelinKeys();
  GaloisKeys Galois = Keygen.createGaloisKeys({1});

  Plaintext Plain =
      Encoder.encode(R.vectorBelow(Ctx.plainModulus(), Ctx.slotCount()));
  Ciphertext A = Enc.encrypt(Plain);
  Ciphertext B = Enc.encrypt(Plain);
  Ciphertext Product = Eval.multiply(A, B);

  double AddUs = medianMicros(Repeats, [&] { Eval.add(A, B); });
  double SubUs = medianMicros(Repeats, [&] { Eval.sub(A, B); });
  double AddPtUs = medianMicros(Repeats, [&] { Eval.addPlain(A, Plain); });
  double MulPtUs =
      medianMicros(Repeats, [&] { Eval.multiplyPlain(A, Plain); });
  double MulRawUs = medianMicros(Repeats, [&] { Eval.multiply(A, B); });
  double RelinUs =
      medianMicros(Repeats, [&] { Eval.relinearize(Product, Relin); });
  double RotUs = medianMicros(Repeats, [&] { Eval.rotateRows(A, 1, Galois); });
  double EncryptUs = medianMicros(Repeats, [&] { Enc.encrypt(Plain); });
  double DecryptUs = medianMicros(Repeats, [&] { Dec.decrypt(A); });
  double NoiseUs =
      medianMicros(Repeats, [&] { Dec.invariantNoiseBudget(A); });
  double DecryptBudgetUs =
      medianMicros(Repeats, [&] { Dec.decryptWithBudget(A); });

  // Kernel-level numbers: one per-prime forward/inverse NTT pass over a
  // full ring element, and one coeff->aux fast base conversion.
  RingPoly Poly = RingPoly::sampleUniform(Ctx, R);
  double NttFwdUs = medianMicros(Repeats, [&] {
    RingPoly P = Poly;
    P.toNtt(Ctx);
  });
  RingPoly PolyNtt = Poly;
  PolyNtt.toNtt(Ctx);
  double NttInvUs = medianMicros(Repeats, [&] {
    RingPoly P = PolyNtt;
    P.fromNtt(Ctx);
  });
  std::vector<std::vector<uint64_t>> Converted;
  double BaseConvUs = medianMicros(
      Repeats, [&] { Ctx.coeffToAux().convert(Poly.allResidues(), Converted); });
  std::vector<std::vector<uint64_t>> Rounded;
  double ScaleRoundUs = medianMicros(Repeats, [&] {
    Ctx.auxScaleToCoeff().scaleAndRound(Converted, Rounded);
  });

  // One key-switch inner product: the relinearization key against a
  // decomposed ciphertext component, over every coefficient prime.
  std::vector<RingPoly> Digits = Eval.hoist(A, Relin.Key.Kind).Digits;
  RingPoly Acc0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly Acc1 = Acc0;
  double KeySwitchUs = medianMicros(Repeats, [&] {
    for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
      std::vector<const uint64_t *> X, K0, K1;
      for (size_t D = 0; D < Digits.size(); ++D) {
        X.push_back(Digits[D].residues(I).data());
        K0.push_back(Relin.Key.K0[D].residues(I).data());
        K1.push_back(Relin.Key.K1[D].residues(I).data());
      }
      Ctx.coeffNtt()[I].keySwitchInnerProduct(
          Digits.size(), X.data(), K0.data(), K1.data(), nullptr, nullptr,
          Acc0.residues(I).data(), Acc1.residues(I).data());
    }
  });

  std::printf("{\n");
  std::printf("  \"schema\": \"bfv-microbench/1\",\n");
  std::printf("  \"poly_degree\": %zu,\n", Ctx.polyDegree());
  std::printf("  \"coeff_modulus_bits\": %u,\n", Ctx.coeffModulusBits());
  // Hosts without AVX-512 IFMA run the scalar transforms, kernels and
  // conversions; say which ran.
  std::printf("  \"ntt_path\": \"%s\",\n",
              Ctx.coeffNtt().front().vectorized() ? "avx512ifma" : "scalar");
  std::printf("  \"repeats\": %d,\n", Repeats);
  std::printf("  \"ops_us\": {\n");
  std::printf("    \"add_ct_ct\": %.1f,\n", AddUs);
  std::printf("    \"sub_ct_ct\": %.1f,\n", SubUs);
  std::printf("    \"add_ct_pt\": %.1f,\n", AddPtUs);
  std::printf("    \"mul_ct_pt\": %.1f,\n", MulPtUs);
  std::printf("    \"mul_ct_ct_raw\": %.1f,\n", MulRawUs);
  std::printf("    \"relin\": %.1f,\n", RelinUs);
  std::printf("    \"mul_ct_ct\": %.1f,\n", MulRawUs + RelinUs);
  std::printf("    \"rotate\": %.1f,\n", RotUs);
  std::printf("    \"encrypt\": %.1f,\n", EncryptUs);
  std::printf("    \"decrypt\": %.1f,\n", DecryptUs);
  std::printf("    \"noise_budget\": %.1f,\n", NoiseUs);
  std::printf("    \"decrypt_with_budget\": %.1f,\n", DecryptBudgetUs);
  std::printf("    \"ntt_forward\": %.1f,\n", NttFwdUs);
  std::printf("    \"ntt_inverse\": %.1f,\n", NttInvUs);
  std::printf("    \"base_conv_coeff_to_aux\": %.1f,\n", BaseConvUs);
  std::printf("    \"scale_round_aux_to_coeff\": %.1f,\n", ScaleRoundUs);
  std::printf("    \"key_switch\": %.1f\n", KeySwitchUs);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
