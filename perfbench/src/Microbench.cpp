//===- perfbench/src/Microbench.cpp - bfv and math entry points -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times each opcode the call path uses, through the bfv layer's public
/// classes (Evaluator, Encryptor, Decryptor) and the math layer's NTT, at
/// the two ring dimensions the call kernels run at: N=4096 (the depth-1
/// parameters) and N=8192 (the depth-2 parameters). Operations are
/// interleaved, one of each per repetition, so a slow phase of the host
/// hits every opcode alike. mul_ct_ct is the raw tensor product; relin is
/// timed on its own.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include "bfv/BatchEncoder.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "bfv/RingPoly.h"

#include <functional>

using namespace perfbench;
using namespace porcupine;

std::map<size_t, OpTimes> perfbench::runMicrobench(Report &R) {
  constexpr int Repeats = 15;
  std::map<size_t, OpTimes> All;
  for (unsigned Depth : {1u, 2u}) {
    BfvContext Ctx = BfvContext::forMultDepth(Depth);
    const size_t N = Ctx.polyDegree();
    const std::string Tag = "n" + std::to_string(N);
    Rng Rand(7);
    KeyGenerator Keygen(Ctx, Rand);
    PublicKey Pk = Keygen.createPublicKey();
    Encryptor Enc(Ctx, Pk, Rand);
    Evaluator Eval(Ctx);
    BatchEncoder Encoder(Ctx);
    Decryptor Dec(Ctx, Keygen.secretKey());
    RelinKeys Relin = Keygen.createRelinKeys();
    GaloisKeys Galois = Keygen.createGaloisKeys({1});
    Plaintext Plain =
        Encoder.encode(Rand.vectorBelow(Ctx.plainModulus(), Ctx.slotCount()));
    Ciphertext A = Enc.encrypt(Plain);
    Ciphertext B = Enc.encrypt(Plain);
    Ciphertext Product = Eval.multiply(A, B);
    std::vector<uint64_t> Residue =
        RingPoly::sampleUniform(Ctx, Rand).residues(0);
    const NttTables &Ntt = Ctx.coeffNtt().front();

    struct Op {
      const char *Layer, *Entry, *Key;
      std::function<void()> Fn;
    };
    const std::vector<Op> Ops = {
        {"bfv", "Evaluator::add", "add", [&] { Eval.add(A, B); }},
        {"bfv", "Evaluator::multiplyPlain", "mul_ct_pt",
         [&] { Eval.multiplyPlain(A, Plain); }},
        {"bfv", "Evaluator::multiply", "mul_ct_ct",
         [&] { Eval.multiply(A, B); }},
        {"bfv", "Evaluator::relinearize", "relin",
         [&] { Eval.relinearize(Product, Relin); }},
        {"bfv", "Evaluator::rotateRows", "rotate",
         [&] { Eval.rotateRows(A, 1, Galois); }},
        {"bfv", "Encryptor::encrypt", "encrypt", [&] { Enc.encrypt(Plain); }},
        {"bfv", "Decryptor::decrypt", "decrypt", [&] { Dec.decrypt(A); }},
        // Forward then inverse keeps Residue a valid coefficient vector.
        {"math", "NttTables::forwardTransform", "ntt_fwd",
         [&] { Ntt.forwardTransform(Residue); }},
        {"math", "NttTables::inverseTransform", "ntt_inv",
         [&] { Ntt.inverseTransform(Residue); }},
    };
    for (int Rep = 0; Rep < Repeats; ++Rep)
      for (const Op &X : Ops) {
        Span Sp(X.Layer, X.Entry, Tag);
        X.Fn();
      }
    for (const Op &X : Ops) {
      double Us =
          median(Tracer::instance().durationsMs(X.Entry, Tag)) * 1e3;
      All[N][X.Key] = Us;
      R.set(std::string(X.Layer) + "." + Tag + "." + X.Key + "_us", Us, "us");
    }
  }
  return All;
}
