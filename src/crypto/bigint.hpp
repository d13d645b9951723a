// Arbitrary-precision unsigned integers.
//
// This is the numeric substrate for the RSA signature scheme the paper's
// non-repudiation evidence relies on (§4.2 assumes a verifiable, unforgeable
// signature scheme). Only non-negative values are supported because RSA and
// the auxiliary number theory (gcd, modular inverse, Miller-Rabin) never
// need negatives; operator- therefore requires a >= b and throws otherwise.
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace b2b::crypto {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine word.
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte-string conversions (the wire format for keys and
  /// signatures). from_bytes_be accepts leading zero bytes.
  static BigInt from_bytes_be(BytesView bytes);
  /// Minimal-length big-endian bytes (empty for zero).
  Bytes to_bytes_be() const;
  /// Fixed-width big-endian bytes, left-padded with zeros. Throws if the
  /// value does not fit.
  Bytes to_bytes_be(std::size_t width) const;

  /// Hex (no 0x prefix) and decimal conversions, mainly for tests/debugging.
  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;
  static BigInt from_decimal(std::string_view dec);
  std::string to_decimal() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1) != 0; }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit `i` (false beyond bit_length).
  bool bit(std::size_t i) const;

  std::size_t limb_count() const { return limbs_.size(); }
  std::uint64_t limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }

  /// Low 64 bits of the value.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  // Arithmetic. operator- throws std::invalid_argument when *this < rhs.
  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator/(const BigInt& rhs) const;
  BigInt operator%(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }

  struct DivMod;
  /// Quotient and remainder in one division (Knuth algorithm D).
  /// Throws std::domain_error on division by zero.
  static DivMod divmod(const BigInt& numerator, const BigInt& denominator);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

 private:
  friend class MontgomeryContext;  // reads and fills limbs in place

  void normalize();

  std::vector<std::uint64_t> limbs_;
};

/// Result of BigInt::divmod.
struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

/// Greatest common divisor (binary-free Euclid; fine at RSA sizes).
BigInt gcd(BigInt a, BigInt b);

/// Least common multiple. Throws std::domain_error if either input is zero.
BigInt lcm(const BigInt& a, const BigInt& b);

/// Modular inverse of `a` mod `m`. Throws b2b::CryptoError when the inverse
/// does not exist (gcd(a, m) != 1).
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// base^exponent mod modulus. Uses Montgomery multiplication when the
/// modulus is odd (the RSA case), plain square-and-multiply otherwise.
/// Throws std::domain_error for modulus == 0.
BigInt mod_exp(const BigInt& base, const BigInt& exponent,
               const BigInt& modulus);

/// Montgomery context for repeated multiplications modulo one odd modulus.
/// Exposed so Miller-Rabin and RSA share the machinery, and so tests can
/// exercise it directly against the reference path.
///
/// Immutable after construction, so one context may be shared by any number
/// of threads: every operation keeps its scratch in its own call frame.
class MontgomeryContext {
 public:
  /// Throws std::invalid_argument unless modulus is odd and > 1.
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  /// Convert into / out of Montgomery form.
  BigInt to_mont(const BigInt& value) const;
  BigInt from_mont(const BigInt& value) const;

  /// Montgomery product (and square) of values already in Montgomery form.
  BigInt mul(const BigInt& a, const BigInt& b) const;
  BigInt sqr(const BigInt& a) const;

  /// base^exponent mod modulus (inputs/outputs in ordinary form).
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

 private:
  std::size_t width() const { return modulus_.limb_count(); }

  // Limb kernels over caller-owned buffers of width() limbs. `out` may
  // alias an input; `scratch` holds 2 * width() + 1 limbs.
  void mul_limbs(std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b, std::uint64_t* scratch) const;
  void sqr_limbs(std::uint64_t* out, const std::uint64_t* a,
                 std::uint64_t* scratch) const;
  /// out = product * R^{-1} mod modulus, for a product < modulus * R held
  /// in the first 2 * width() limbs of `product` (which it overwrites).
  void redc_limbs(std::uint64_t* out, std::uint64_t* product) const;
  /// Copies the low width() limbs of `value` into `out`.
  void load(std::uint64_t* out, const BigInt& value) const;
  BigInt from_mont_limbs(const std::uint64_t* value,
                         std::uint64_t* scratch) const;

  BigInt modulus_;
  std::uint64_t n0_inv_;            // -modulus^{-1} mod 2^64
  std::vector<std::uint64_t> one_;  // R mod modulus (Montgomery form of 1)
  std::vector<std::uint64_t> r2_;   // R^2 mod modulus, used by to_mont
};

}  // namespace b2b::crypto
