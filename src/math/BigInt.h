//===- math/BigInt.h - Fixed-capacity signed big integers -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sign-magnitude big integers with a fixed inline capacity (no heap
/// allocation), sized for BFV: coefficient moduli up to ~300 bits, tensor
/// products up to ~620 bits, and the t*x intermediates of the BFV
/// scale-and-round. Overflow beyond the capacity is a programming error and
/// asserts.
///
/// The interesting algorithms are schoolbook multiplication and Knuth's
/// Algorithm D division; everything else is straightforward limb
/// manipulation.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_BIGINT_H
#define PORCUPINE_MATH_BIGINT_H

#include <cstdint>
#include <string>

namespace porcupine {

/// A signed big integer with capacity for MaxWords 64-bit limbs
/// (little-endian magnitude) and a sign flag. Value semantics, trivially
/// copyable.
class BigInt {
public:
  static constexpr unsigned MaxWords = 12;

  /// Constructs zero.
  BigInt() = default;

  /// Constructs from an unsigned word.
  static BigInt fromU64(uint64_t V);

  /// Constructs from a signed word.
  static BigInt fromI64(int64_t V);

  /// Constructs a non-negative value from \p Count little-endian limbs
  /// (Count <= MaxWords).
  static BigInt fromWords(const uint64_t *Limbs, unsigned Count);

  /// Limb \p I of the magnitude, little-endian; 0 past the top limb.
  uint64_t word(unsigned I) const { return I < Size ? Words[I] : 0; }

  bool isZero() const { return Size == 0; }
  bool isNegative() const { return Negative; }

  /// Number of significant bits in the magnitude (0 for zero).
  unsigned bitLength() const;

  /// log2 of the magnitude as a double (-inf surrogate of 0.0 for zero);
  /// used for noise-budget reporting.
  double log2Magnitude() const;

  /// Three-way comparison: negative, zero, or positive as *this <=> RHS.
  int compare(const BigInt &RHS) const;

  bool operator==(const BigInt &RHS) const { return compare(RHS) == 0; }
  bool operator!=(const BigInt &RHS) const { return compare(RHS) != 0; }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  BigInt operator-() const;
  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }

  /// Multiplies by an unsigned word.
  BigInt mulWord(uint64_t W) const;

  /// Logical shifts of the magnitude (sign preserved).
  BigInt shiftLeft(unsigned Bits) const;
  BigInt shiftRight(unsigned Bits) const;

  /// Truncated division: Quotient = trunc(*this / Divisor), and
  /// *this == Quotient * Divisor + Remainder with |Remainder| < |Divisor|
  /// and Remainder carrying the dividend's sign. Divisor must be nonzero.
  void divMod(const BigInt &Divisor, BigInt &Quotient, BigInt &Remainder) const;

  /// Division rounded to the nearest integer, ties away from zero. This is
  /// the rounding used by BFV's (t/q)-scaling.
  BigInt divRoundNearest(const BigInt &Divisor) const;

  /// Returns the canonical residue of *this modulo word \p M, in [0, M).
  uint64_t modWord(uint64_t M) const;

  /// Extracts the \p Index-th digit of \p Width bits from the magnitude
  /// (little-endian digit order). Used for key-switching decomposition;
  /// the value must be non-negative.
  uint64_t digit(unsigned Index, unsigned Width) const;

  /// Converts to int64; the value must fit (asserted).
  int64_t toI64() const;

  /// Lowercase hex string with sign, e.g. "-0x1f".
  std::string toHexString() const;

private:
  uint64_t Words[MaxWords] = {};
  unsigned Size = 0;
  bool Negative = false;

  void normalize();
  static int compareMagnitude(const BigInt &A, const BigInt &B);
  static BigInt addMagnitude(const BigInt &A, const BigInt &B);
  /// Requires |A| >= |B|.
  static BigInt subMagnitude(const BigInt &A, const BigInt &B);
  static void divModMagnitude(const BigInt &U, const BigInt &V, BigInt &Q,
                              BigInt &R);
};

} // namespace porcupine

#endif // PORCUPINE_MATH_BIGINT_H
