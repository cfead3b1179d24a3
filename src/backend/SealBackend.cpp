//===- backend/SealBackend.cpp - Microsoft SEAL execution backend ---------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/SealBackend.h"

#ifdef PORCUPINE_WITH_SEAL

#include "support/Error.h"

#include <seal/seal.h>

#include <cmath>

using namespace porcupine;
using namespace porcupine::backend;
using namespace porcupine::quill;

/// The immutable, shareable half of a SEAL session (everything but keys).
struct porcupine::backend::SealState {
  std::unique_ptr<seal::SEALContext> Ctx;
  size_t PolyDegree = 0;
  uint64_t T = 0;
};

namespace {

class SealSession : public Executor {
public:
  SealSession(std::shared_ptr<const SealState> State,
              const std::vector<const Program *> &Programs)
      : State(std::move(State)), Keygen(*this->State->Ctx),
        Encoder(*this->State->Ctx) {
    Keygen.create_public_key(Pk);
    Keygen.create_relin_keys(Relin);
    std::vector<int> Steps = porcupine::requiredRotations(Programs);
    if (!Steps.empty())
      Keygen.create_galois_keys(Steps, Galois);
    Enc = std::make_unique<seal::Encryptor>(*this->State->Ctx, Pk);
    Eval = std::make_unique<seal::Evaluator>(*this->State->Ctx);
    Dec = std::make_unique<seal::Decryptor>(*this->State->Ctx,
                                            Keygen.secret_key());
  }

  Expected<Value> encrypt(const std::vector<uint64_t> &Values) const override {
    std::vector<uint64_t> Slots(Encoder.slot_count(), 0);
    for (size_t I = 0; I < Values.size(); ++I)
      Slots[I] = Values[I] % State->T;
    seal::Plaintext Pt;
    Encoder.encode(Slots, Pt);
    seal::Ciphertext Ct;
    Enc->encrypt(Pt, Ct);
    return Value::wrap(std::move(Ct));
  }

  Expected<Value> run(const Program &P, const std::vector<Value> &Inputs,
                      const InstrHook &AfterInstr) const override {
    std::vector<seal::Ciphertext> Values;
    Values.reserve(P.numValues());
    for (const Value &V : Inputs)
      Values.push_back(V.get<seal::Ciphertext>());
    std::vector<seal::Plaintext> Consts;
    Consts.reserve(P.Constants.size());
    for (const PlainConstant &C : P.Constants)
      Consts.push_back(encodeConstant(C));
    for (const Instr &I : P.Instructions) {
      Values.push_back(execInstr(I, P.ExplicitRelin, Values, Consts));
      if (AfterInstr)
        AfterInstr(Value::wrap(Values.back()));
    }
    return Value::wrap(std::move(Values[P.outputId()]));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    seal::Plaintext Pt;
    Dec->decrypt(V.get<seal::Ciphertext>(), Pt);
    std::vector<uint64_t> Slots;
    Encoder.decode(Pt, Slots);
    Slots.resize(Width);
    return Slots;
  }

  double noiseBudget(const Value &V) const override {
    return Dec->invariant_noise_budget(V.get<seal::Ciphertext>());
  }

  size_t slotCount() const override { return Encoder.slot_count() / 2; }
  size_t polyDegree() const override { return State->PolyDegree; }
  uint64_t plainModulus() const override { return State->T; }

private:
  std::shared_ptr<const SealState> State;
  seal::KeyGenerator Keygen;
  seal::BatchEncoder Encoder;
  seal::PublicKey Pk;
  seal::RelinKeys Relin;
  seal::GaloisKeys Galois;
  std::unique_ptr<seal::Encryptor> Enc;
  std::unique_ptr<seal::Evaluator> Eval;
  std::unique_ptr<seal::Decryptor> Dec;

  seal::Plaintext encodeConstant(const PlainConstant &C) const {
    std::vector<int64_t> Slots;
    if (C.isSplat()) {
      Slots.assign(Encoder.slot_count(), C.Values[0]);
    } else {
      Slots.assign(Encoder.slot_count(), 0);
      for (size_t I = 0; I < C.Values.size(); ++I)
        Slots[I] = C.Values[I];
    }
    seal::Plaintext Pt;
    Encoder.encode(Slots, Pt);
    return Pt;
  }

  /// Galois ops need size-2 ciphertexts; explicit-relin programs may hand
  /// a three-component intermediate to a rotation.
  seal::Ciphertext rotated(const seal::Ciphertext &A, int Steps) const {
    seal::Ciphertext In = A;
    if (In.size() > 2)
      Eval->relinearize_inplace(In, Relin);
    seal::Ciphertext Out;
    Eval->rotate_rows(In, Steps, Galois, Out);
    return Out;
  }

  seal::Ciphertext execInstr(const Instr &I, bool ExplicitRelin,
                             const std::vector<seal::Ciphertext> &Values,
                             const std::vector<seal::Plaintext> &Consts) const {
    const seal::Ciphertext &A = Values[I.Src0];
    seal::Ciphertext Out;
    switch (I.Op) {
    case Opcode::AddCtCt:
      Eval->add(A, Values[I.Src1], Out);
      return Out;
    case Opcode::SubCtCt:
      Eval->sub(A, Values[I.Src1], Out);
      return Out;
    case Opcode::MulCtCt:
      Eval->multiply(A, Values[I.Src1], Out);
      if (!ExplicitRelin)
        Eval->relinearize_inplace(Out, Relin);
      return Out;
    case Opcode::AddCtPt:
      Eval->add_plain(A, Consts[I.PtIdx], Out);
      return Out;
    case Opcode::SubCtPt:
      Eval->sub_plain(A, Consts[I.PtIdx], Out);
      return Out;
    case Opcode::MulCtPt:
      Eval->multiply_plain(A, Consts[I.PtIdx], Out);
      return Out;
    case Opcode::RotCt:
      return rotated(A, I.Rot);
    case Opcode::Relin:
      Out = A;
      if (Out.size() > 2)
        Eval->relinearize_inplace(Out, Relin);
      return Out;
    }
    PORC_UNREACHABLE("unhandled opcode");
  }
};

} // namespace

quill::NoiseParams SealBackend::noiseParams(const BfvParams &Params) const {
  // What createExecutor builds: SEAL's default modulus for the ring degree.
  // Its last prime is the special prime key switching goes through, and
  // its gadget digits are whole residues of the other primes.
  quill::NoiseParams Noise;
  Noise.PolyDegree = Params.PolyDegree;
  Noise.PlainModulus = Params.PlainModulus;
  for (const seal::Modulus &Q :
       seal::CoeffModulus::BFVDefault(Params.PolyDegree))
    Noise.PrimeBits.push_back(std::log2(static_cast<double>(Q.value())));
  Noise.DigitBits = 64;
  Noise.SpecialPrime = true;
  return Noise;
}

Expected<std::unique_ptr<Executor>>
SealBackend::createExecutor(const SessionSpec &Spec) const {
  // Build the selected ring degree so "bfv" and "seal" agree on the
  // batching-row geometry for a given program set. SEAL keeps its own
  // default coefficient modulus for that degree.
  const size_t N = Spec.Params.PolyDegree;
  const uint64_t T = Spec.Params.PlainModulus;
  std::shared_ptr<const SealState> State = Contexts.get({N, T}, [&] {
    seal::EncryptionParameters Parms(seal::scheme_type::bfv);
    Parms.set_poly_modulus_degree(N);
    Parms.set_coeff_modulus(seal::CoeffModulus::BFVDefault(N));
    Parms.set_plain_modulus(T);
    auto S = std::make_shared<SealState>();
    S->Ctx = std::make_unique<seal::SEALContext>(Parms);
    S->PolyDegree = N;
    S->T = T;
    return S;
  });
  if (!State->Ctx->key_context_data() ||
      !State->Ctx->key_context_data()->qualifiers().using_batching)
    return Status::error("execute", "SEAL rejected plaintext modulus " +
                                        std::to_string(T) + " at N=" +
                                        std::to_string(N) +
                                        " (batching unavailable); run with "
                                        "the default modulus");

  size_t Row = N / 2;
  for (const Program *P : Spec.Programs)
    if (P->VectorSize > Row)
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(Row));

  return std::unique_ptr<Executor>(new SealSession(State, Spec.Programs));
}

#endif // PORCUPINE_WITH_SEAL
