//===- quill/Noise.cpp - Static noise bound for Quill programs -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "quill/Noise.h"

#include <algorithm>
#include <cmath>

using namespace porcupine;
using namespace porcupine::quill;

/// Tail factor: every random term is bounded by this many standard
/// deviations.
static constexpr double TailFactor = 6.0;

/// Standard deviation of the encryption and key errors
/// (Rng::centeredError).
static const double Sigma = std::sqrt(42.0) / 2.0;

/// \p V reduced mod \p T into (-T/2, T/2]: the splat value the encoders
/// and the centred plaintext multiply use.
static double centeredMod(int64_t V, uint64_t T) {
  int64_t M = V % static_cast<int64_t>(T);
  if (M < 0)
    M += static_cast<int64_t>(T);
  if (static_cast<uint64_t>(M) > T / 2)
    M -= static_cast<int64_t>(T);
  return static_cast<double>(M);
}

std::vector<double> quill::predictNoiseBudgets(const Program &P,
                                               const NoiseParams &Params) {
  const double N = static_cast<double>(Params.PolyDegree);
  const double T = static_cast<double>(Params.PlainModulus);
  const double H = TailFactor;

  // Ciphertexts live modulo the data primes; each of them contributes
  // ceil(bits / DigitBits) gadget digits to a key switch.
  const size_t DataPrimes =
      Params.PrimeBits.size() - (Params.SpecialPrime ? 1 : 0);
  double LogQ = 0.0, DigitSquares = 0.0;
  for (size_t I = 0; I < DataPrimes; ++I) {
    const double Bits = Params.PrimeBits[I];
    const double Digit = std::min(Bits, static_cast<double>(Params.DigitBits));
    DigitSquares += std::ceil(Bits / Params.DigitBits) * std::exp2(2 * Digit);
    LogQ += Bits;
  }
  const double Q = std::exp2(LogQ);

  // A key switch adds sum_d digit_d * e_d, digits uniform below D_d. Through
  // a special prime that sum is divided by the prime, and the division
  // rounds both components: r0 + r1 * s with |r_j| <= 1/2.
  double KeySwitch = H * T * Sigma * std::sqrt(N / 3.0 * DigitSquares);
  if (Params.SpecialPrime)
    KeySwitch = KeySwitch / std::exp2(Params.PrimeBits.back()) +
                T * (0.5 + H * std::sqrt(N / 18.0));

  // Fresh: t * (e1 - e * u + e2 * s) plus (Q mod t) * m with Q mod t and
  // every coefficient of m below t.
  const double Fresh =
      (T - 1) * (T - 1) + H * T * Sigma * std::sqrt(1.0 + 4.0 * N / 3.0);
  // Adding Delta * m, a plaintext with coefficients below t.
  const double PlainAdd = (T - 1) * (T - 1);
  // The tensor product scales each operand's noise by t times the norm of
  // the other's c(s)/Q and message, and rounds: (r0 + r1 s + r2 s^2).
  const double MulScale = H * T * (N / std::sqrt(18.0) + std::sqrt(N / 12.0));
  const double MulRound = 0.2 * H * T * N;

  // nu is a centred remainder mod Q, so Q/2 bounds it whatever happens.
  const double Cap = Q / 2;
  std::vector<double> Nu(P.numValues(), Fresh);
  for (size_t K = 0; K < P.Instructions.size(); ++K) {
    const Instr &I = P.Instructions[K];
    const double A = Nu[I.Src0];
    double V = A;
    switch (I.Op) {
    case Opcode::AddCtCt:
    case Opcode::SubCtCt:
      V = A + Nu[I.Src1];
      break;
    case Opcode::AddCtPt:
    case Opcode::SubCtPt:
      V = A + PlainAdd;
      break;
    case Opcode::MulCtPt: {
      // A splat encodes to the constant polynomial c; a full vector to a
      // polynomial with centred coefficients below t/2.
      const PlainConstant &C = P.Constants[I.PtIdx];
      V = A * (C.isSplat() ? std::abs(centeredMod(C.Values[0],
                                                  Params.PlainModulus))
                           : H * std::sqrt(N) * (T - 1) / 2);
      break;
    }
    case Opcode::MulCtCt: {
      const double B = Nu[I.Src1];
      V = MulScale * (A + B) + H * std::sqrt(N) * A * B / Q + MulRound;
      if (!P.ExplicitRelin)
        V += KeySwitch;
      break;
    }
    case Opcode::Relin:
    case Opcode::RotCt:
      V = A + KeySwitch;
      break;
    }
    Nu[P.valueOf(K)] = std::min(V, Cap);
  }

  std::vector<double> Budgets;
  Budgets.reserve(Nu.size());
  for (double V : Nu)
    Budgets.push_back(
        std::max(LogQ - std::log2(std::max(V, 1.0)) - 1.0, 0.0));
  return Budgets;
}

double quill::predictNoiseBudget(const Program &P, const NoiseParams &Params) {
  return predictNoiseBudgets(P, Params)[P.outputId()];
}
