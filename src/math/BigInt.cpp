//===- math/BigInt.cpp - Fixed-capacity signed big integers ---------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/BigInt.h"

#include <cassert>
#include <cstring>

using namespace porcupine;

using U128 = unsigned __int128;

void BigInt::normalize() {
  while (Size > 0 && Words[Size - 1] == 0)
    --Size;
  if (Size == 0)
    Negative = false;
}

BigInt BigInt::fromU64(uint64_t V) {
  BigInt R;
  R.Words[0] = V;
  R.Size = V != 0 ? 1 : 0;
  return R;
}

BigInt BigInt::fromI64(int64_t V) {
  if (V >= 0)
    return fromU64(static_cast<uint64_t>(V));
  // Avoid UB on INT64_MIN by negating in unsigned arithmetic.
  BigInt R = fromU64(0 - static_cast<uint64_t>(V));
  R.Negative = true;
  return R;
}

BigInt BigInt::fromWords(const uint64_t *Limbs, unsigned Count) {
  assert(Count <= MaxWords && "value exceeds BigInt capacity");
  BigInt R;
  std::memcpy(R.Words, Limbs, Count * sizeof(uint64_t));
  R.Size = Count;
  R.normalize();
  return R;
}

unsigned BigInt::bitLength() const {
  if (Size == 0)
    return 0;
  uint64_t Top = Words[Size - 1];
  unsigned Bits = 64 * Size;
  while ((Top & (1ull << 63)) == 0) {
    Top <<= 1;
    --Bits;
  }
  return Bits;
}

double BigInt::log2Magnitude() const {
  if (Size == 0)
    return 0.0;
  // Use the top two limbs for ~64 bits of mantissa accuracy.
  double Top = static_cast<double>(Words[Size - 1]);
  double Below = Size >= 2 ? static_cast<double>(Words[Size - 2]) : 0.0;
  double Value = Top + Below / 18446744073709551616.0;
  return __builtin_log2(Value) + 64.0 * (Size - 1);
}

int BigInt::compareMagnitude(const BigInt &A, const BigInt &B) {
  if (A.Size != B.Size)
    return A.Size < B.Size ? -1 : 1;
  for (unsigned I = A.Size; I-- > 0;) {
    if (A.Words[I] != B.Words[I])
      return A.Words[I] < B.Words[I] ? -1 : 1;
  }
  return 0;
}

int BigInt::compare(const BigInt &RHS) const {
  if (Negative != RHS.Negative)
    return Negative ? -1 : 1;
  int MagCmp = compareMagnitude(*this, RHS);
  return Negative ? -MagCmp : MagCmp;
}

BigInt BigInt::addMagnitude(const BigInt &A, const BigInt &B) {
  BigInt R;
  unsigned N = A.Size > B.Size ? A.Size : B.Size;
  assert(N <= MaxWords && "BigInt overflow");
  uint64_t Carry = 0;
  for (unsigned I = 0; I < N; ++I) {
    U128 Sum = static_cast<U128>(I < A.Size ? A.Words[I] : 0) +
               (I < B.Size ? B.Words[I] : 0) + Carry;
    R.Words[I] = static_cast<uint64_t>(Sum);
    Carry = static_cast<uint64_t>(Sum >> 64);
  }
  if (Carry != 0) {
    assert(N < MaxWords && "BigInt overflow");
    R.Words[N++] = Carry;
  }
  R.Size = N;
  R.normalize();
  return R;
}

BigInt BigInt::subMagnitude(const BigInt &A, const BigInt &B) {
  assert(compareMagnitude(A, B) >= 0 && "subMagnitude requires |A| >= |B|");
  BigInt R;
  U128 Borrow = 0;
  for (unsigned I = 0; I < A.Size; ++I) {
    uint64_t BW = I < B.Size ? B.Words[I] : 0;
    U128 Diff = static_cast<U128>(A.Words[I]) - BW - Borrow;
    R.Words[I] = static_cast<uint64_t>(Diff);
    Borrow = (Diff >> 64) != 0 ? 1 : 0;
  }
  R.Size = A.Size;
  R.normalize();
  return R;
}

BigInt BigInt::operator-() const {
  BigInt R = *this;
  if (R.Size != 0)
    R.Negative = !R.Negative;
  return R;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  if (Negative == RHS.Negative) {
    BigInt R = addMagnitude(*this, RHS);
    R.Negative = Negative && R.Size != 0;
    return R;
  }
  int MagCmp = compareMagnitude(*this, RHS);
  if (MagCmp == 0)
    return BigInt();
  if (MagCmp > 0) {
    BigInt R = subMagnitude(*this, RHS);
    R.Negative = Negative && R.Size != 0;
    return R;
  }
  BigInt R = subMagnitude(RHS, *this);
  R.Negative = RHS.Negative && R.Size != 0;
  return R;
}

BigInt BigInt::operator-(const BigInt &RHS) const { return *this + (-RHS); }

BigInt BigInt::operator*(const BigInt &RHS) const {
  if (isZero() || RHS.isZero())
    return BigInt();
  assert(Size + RHS.Size <= MaxWords + 1 && "BigInt multiply overflow");
  BigInt R;
  uint64_t Acc[MaxWords + 1] = {};
  for (unsigned I = 0; I < Size; ++I) {
    uint64_t Carry = 0;
    for (unsigned J = 0; J < RHS.Size; ++J) {
      assert(I + J < MaxWords + 1);
      U128 Cur = static_cast<U128>(Words[I]) * RHS.Words[J] + Acc[I + J] +
                 Carry;
      Acc[I + J] = static_cast<uint64_t>(Cur);
      Carry = static_cast<uint64_t>(Cur >> 64);
    }
    unsigned K = I + RHS.Size;
    while (Carry != 0) {
      assert(K < MaxWords + 1);
      U128 Cur = static_cast<U128>(Acc[K]) + Carry;
      Acc[K] = static_cast<uint64_t>(Cur);
      Carry = static_cast<uint64_t>(Cur >> 64);
      ++K;
    }
  }
  unsigned N = Size + RHS.Size;
  if (N > MaxWords) {
    assert(Acc[MaxWords] == 0 && "BigInt multiply overflow");
    N = MaxWords;
  }
  std::memcpy(R.Words, Acc, N * sizeof(uint64_t));
  R.Size = N;
  R.Negative = Negative != RHS.Negative;
  R.normalize();
  return R;
}

BigInt BigInt::mulWord(uint64_t W) const {
  return *this * fromU64(W);
}

BigInt BigInt::shiftLeft(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  unsigned WordShift = Bits / 64;
  unsigned BitShift = Bits % 64;
  assert(Size + WordShift + (BitShift != 0 ? 1 : 0) <= MaxWords &&
         "BigInt shift overflow");
  BigInt R;
  R.Negative = Negative;
  for (unsigned I = Size; I-- > 0;) {
    uint64_t W = Words[I];
    if (BitShift == 0) {
      R.Words[I + WordShift] = W;
    } else {
      R.Words[I + WordShift + 1] |= W >> (64 - BitShift);
      R.Words[I + WordShift] |= W << BitShift;
    }
  }
  R.Size = Size + WordShift + 1;
  if (R.Size > MaxWords)
    R.Size = MaxWords;
  R.normalize();
  return R;
}

BigInt BigInt::shiftRight(unsigned Bits) const {
  unsigned WordShift = Bits / 64;
  unsigned BitShift = Bits % 64;
  if (WordShift >= Size)
    return BigInt();
  BigInt R;
  R.Negative = Negative;
  unsigned NewSize = Size - WordShift;
  for (unsigned I = 0; I < NewSize; ++I) {
    uint64_t W = Words[I + WordShift] >> BitShift;
    if (BitShift != 0 && I + WordShift + 1 < Size)
      W |= Words[I + WordShift + 1] << (64 - BitShift);
    R.Words[I] = W;
  }
  R.Size = NewSize;
  R.normalize();
  return R;
}

/// Knuth TAOCP vol. 2, Algorithm D. U and V are magnitudes, V.Size >= 2,
/// |U| >= |V|.
void BigInt::divModMagnitude(const BigInt &U, const BigInt &V, BigInt &Q,
                             BigInt &R) {
  unsigned N = V.Size;
  unsigned M = U.Size - N;

  // D1: normalize so the divisor's top bit is set.
  unsigned Shift = 0;
  uint64_t Top = V.Words[N - 1];
  while ((Top & (1ull << 63)) == 0) {
    Top <<= 1;
    ++Shift;
  }
  // Normalized copies; UN has an extra high limb.
  uint64_t UN[MaxWords + 1] = {};
  uint64_t VN[MaxWords] = {};
  for (unsigned I = N; I-- > 0;) {
    VN[I] = V.Words[I] << Shift;
    if (Shift != 0 && I > 0)
      VN[I] |= V.Words[I - 1] >> (64 - Shift);
  }
  for (unsigned I = U.Size; I-- > 0;) {
    UN[I] = U.Words[I] << Shift;
    if (Shift != 0 && I > 0)
      UN[I] |= U.Words[I - 1] >> (64 - Shift);
  }
  if (Shift != 0)
    UN[U.Size] = U.Words[U.Size - 1] >> (64 - Shift);

  Q = BigInt();
  // D2-D7: main loop.
  for (int J = static_cast<int>(M); J >= 0; --J) {
    // D3: estimate qhat.
    U128 Numer = (static_cast<U128>(UN[J + N]) << 64) | UN[J + N - 1];
    U128 QHat = Numer / VN[N - 1];
    U128 RHat = Numer % VN[N - 1];
    while (QHat >> 64 != 0 ||
           QHat * VN[N - 2] > ((RHat << 64) | UN[J + N - 2])) {
      --QHat;
      RHat += VN[N - 1];
      if (RHat >> 64 != 0)
        break;
    }
    // D4: multiply and subtract.
    U128 Borrow = 0;
    U128 Carry = 0;
    for (unsigned I = 0; I < N; ++I) {
      U128 Product = QHat * VN[I] + Carry;
      Carry = Product >> 64;
      uint64_t Sub = static_cast<uint64_t>(Product);
      U128 Diff = static_cast<U128>(UN[I + J]) - Sub - Borrow;
      UN[I + J] = static_cast<uint64_t>(Diff);
      Borrow = (Diff >> 64) != 0 ? 1 : 0;
    }
    U128 Diff = static_cast<U128>(UN[J + N]) - Carry - Borrow;
    UN[J + N] = static_cast<uint64_t>(Diff);
    bool NeedAddBack = (Diff >> 64) != 0;

    // D5/D6: if we subtracted too much, add one divisor back.
    if (NeedAddBack) {
      --QHat;
      U128 CarryBack = 0;
      for (unsigned I = 0; I < N; ++I) {
        U128 Sum = static_cast<U128>(UN[I + J]) + VN[I] + CarryBack;
        UN[I + J] = static_cast<uint64_t>(Sum);
        CarryBack = Sum >> 64;
      }
      UN[J + N] = static_cast<uint64_t>(UN[J + N] + CarryBack);
    }
    if (static_cast<unsigned>(J) < MaxWords)
      Q.Words[J] = static_cast<uint64_t>(QHat);
    else
      assert(QHat == 0 && "BigInt quotient overflow");
  }
  Q.Size = M + 1 <= MaxWords ? M + 1 : MaxWords;
  Q.normalize();

  // D8: denormalize the remainder.
  R = BigInt();
  for (unsigned I = 0; I < N; ++I) {
    uint64_t W = UN[I] >> Shift;
    if (Shift != 0 && I + 1 <= N)
      W |= UN[I + 1] << (64 - Shift);
    R.Words[I] = W;
  }
  R.Size = N;
  R.normalize();
}

void BigInt::divMod(const BigInt &Divisor, BigInt &Quotient,
                    BigInt &Remainder) const {
  assert(!Divisor.isZero() && "division by zero");
  int MagCmp = compareMagnitude(*this, Divisor);
  if (MagCmp < 0) {
    Quotient = BigInt();
    Remainder = *this;
    return;
  }
  BigInt QMag, RMag;
  if (Divisor.Size == 1) {
    // Simple word division.
    uint64_t D = Divisor.Words[0];
    QMag = BigInt();
    U128 Rem = 0;
    for (unsigned I = Size; I-- > 0;) {
      U128 Cur = (Rem << 64) | Words[I];
      QMag.Words[I] = static_cast<uint64_t>(Cur / D);
      Rem = Cur % D;
    }
    QMag.Size = Size;
    QMag.normalize();
    RMag = fromU64(static_cast<uint64_t>(Rem));
  } else {
    divModMagnitude(*this, Divisor, QMag, RMag);
  }
  QMag.Negative = (Negative != Divisor.Negative) && !QMag.isZero();
  RMag.Negative = Negative && !RMag.isZero();
  Quotient = QMag;
  Remainder = RMag;
}

BigInt BigInt::divRoundNearest(const BigInt &Divisor) const {
  assert(!Divisor.isZero() && "division by zero");
  BigInt Q, R;
  divMod(Divisor, Q, R);
  // |R| vs |Divisor|/2: compare 2|R| against |Divisor|.
  BigInt TwoR = R.shiftLeft(1);
  TwoR.Negative = false;
  BigInt AbsD = Divisor;
  AbsD.Negative = false;
  if (TwoR.compare(AbsD) >= 0) {
    bool ResultNegative = Negative != Divisor.Negative;
    Q = ResultNegative ? Q - fromU64(1) : Q + fromU64(1);
  }
  return Q;
}

uint64_t BigInt::modWord(uint64_t M) const {
  assert(M != 0);
  U128 Rem = 0;
  for (unsigned I = Size; I-- > 0;)
    Rem = ((Rem << 64) | Words[I]) % M;
  uint64_t R = static_cast<uint64_t>(Rem);
  if (Negative && R != 0)
    R = M - R;
  return R;
}

uint64_t BigInt::digit(unsigned Index, unsigned Width) const {
  assert(!Negative && "digit extraction requires a non-negative value");
  assert(Width >= 1 && Width <= 63);
  unsigned BitPos = Index * Width;
  unsigned WordIdx = BitPos / 64;
  unsigned BitIdx = BitPos % 64;
  if (WordIdx >= Size)
    return 0;
  uint64_t Low = Words[WordIdx] >> BitIdx;
  if (BitIdx + Width > 64 && WordIdx + 1 < Size)
    Low |= Words[WordIdx + 1] << (64 - BitIdx);
  return Low & ((1ull << Width) - 1);
}

int64_t BigInt::toI64() const {
  if (Size == 0)
    return 0;
  assert(Size == 1 && "value does not fit in int64");
  if (Negative) {
    assert(Words[0] <= (1ull << 63) && "value does not fit in int64");
    return -static_cast<int64_t>(Words[0] - 1) - 1;
  }
  assert(Words[0] < (1ull << 63) && "value does not fit in int64");
  return static_cast<int64_t>(Words[0]);
}

std::string BigInt::toHexString() const {
  if (isZero())
    return "0x0";
  std::string S = Negative ? "-0x" : "0x";
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%llx",
                static_cast<unsigned long long>(Words[Size - 1]));
  S += Buf;
  for (unsigned I = Size - 1; I-- > 0;) {
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(Words[I]));
    S += Buf;
  }
  return S;
}
