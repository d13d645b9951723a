// Test-only reference modular exponentiation.
//
// This is the byte-round-trip Montgomery multiply and bit-at-a-time
// exponentiation the library used before its limb-array rewrite, kept
// unchanged so the differential battery in tests/crypto/bigint_test.cpp
// can check the production `mod_exp` / `MontgomeryContext` against it.
// Nothing outside tests links this.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/bigint.hpp"

namespace b2b::crypto::test {

/// The old MontgomeryContext. It uses the same R (2^(64 * limb_count))
/// as the production context, so Montgomery forms compare directly.
class ReferenceMontgomery {
 public:
  /// Throws std::invalid_argument unless modulus is odd and > 1.
  explicit ReferenceMontgomery(const BigInt& modulus);

  BigInt to_mont(const BigInt& value) const;
  BigInt from_mont(const BigInt& value) const;
  BigInt mul(const BigInt& a, const BigInt& b) const;
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

 private:
  BigInt modulus_;
  std::size_t limbs_;
  std::uint64_t n0_inv_;
  BigInt r_mod_;
  BigInt r2_mod_;
};

/// The old mod_exp: ReferenceMontgomery on odd moduli, plain
/// square-and-multiply on even ones.
BigInt reference_mod_exp(const BigInt& base, const BigInt& exponent,
                         const BigInt& modulus);

}  // namespace b2b::crypto::test
