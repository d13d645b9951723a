#include "tests/support/reference_mod_exp.hpp"

#include <stdexcept>
#include <vector>

namespace b2b::crypto::test {

ReferenceMontgomery::ReferenceMontgomery(const BigInt& modulus)
    : modulus_(modulus), limbs_(modulus.limb_count()) {
  if (!modulus.is_odd() || modulus <= BigInt(1)) {
    throw std::invalid_argument("ReferenceMontgomery: modulus must be odd > 1");
  }
  // n0_inv = -modulus^{-1} mod 2^64 via Newton iteration on 64-bit words.
  std::uint64_t m0 = modulus.limb(0);
  std::uint64_t inv = m0;  // correct to 3 bits initially (m0 odd)
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  n0_inv_ = ~inv + 1;  // -inv mod 2^64

  BigInt r = BigInt(1) << (64 * limbs_);
  r_mod_ = r % modulus_;
  r2_mod_ = (r_mod_ * r_mod_) % modulus_;
}

BigInt ReferenceMontgomery::mul(const BigInt& a, const BigInt& b) const {
  // CIOS Montgomery multiplication over 64-bit limbs.
  using u128 = unsigned __int128;
  const std::size_t n = limbs_;
  std::vector<std::uint64_t> t(n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t a_i = a.limb(i);
    // t += a_i * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      u128 cur = static_cast<u128>(a_i) * b.limb(j) + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(cur);
    t[n + 1] = static_cast<std::uint64_t>(cur >> 64);

    // m = t[0] * n0_inv mod 2^64;  t += m * modulus;  t >>= 64
    std::uint64_t m_factor = t[0] * n0_inv_;
    carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      u128 cur2 = static_cast<u128>(m_factor) * modulus_.limb(j) + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur2);
      carry = static_cast<std::uint64_t>(cur2 >> 64);
    }
    u128 cur3 = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(cur3);
    t[n + 1] += static_cast<std::uint64_t>(cur3 >> 64);
    // shift down one limb
    for (std::size_t j = 0; j <= n; ++j) t[j] = t[j + 1];
    t[n + 1] = 0;
  }
  // Assemble and reduce once if needed.
  BigInt result = BigInt::from_bytes_be({});  // zero
  {
    Bytes be((n + 1) * 8, 0);
    for (std::size_t i = 0; i <= n; ++i) {
      for (int bbyte = 0; bbyte < 8; ++bbyte) {
        be[(n - i) * 8 + (7 - bbyte)] =
            static_cast<std::uint8_t>((t[i] >> (8 * bbyte)) & 0xff);
      }
    }
    result = BigInt::from_bytes_be(be);
  }
  if (result >= modulus_) result = result - modulus_;
  return result;
}

BigInt ReferenceMontgomery::to_mont(const BigInt& value) const {
  return mul(value % modulus_, r2_mod_);
}

BigInt ReferenceMontgomery::from_mont(const BigInt& value) const {
  return mul(value, BigInt(1));
}

BigInt ReferenceMontgomery::pow(const BigInt& base,
                                const BigInt& exponent) const {
  BigInt result = r_mod_;  // 1 in Montgomery form
  BigInt acc = to_mont(base);
  std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = mul(result, result);
    if (exponent.bit(i)) result = mul(result, acc);
  }
  return from_mont(result);
}

BigInt reference_mod_exp(const BigInt& base, const BigInt& exponent,
                         const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return {};
  if (modulus.is_odd()) {
    return ReferenceMontgomery(modulus).pow(base, exponent);
  }
  // Even modulus: plain left-to-right square-and-multiply.
  BigInt result(1);
  BigInt acc = base % modulus;
  std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.bit(i)) result = (result * acc) % modulus;
  }
  return result;
}

}  // namespace b2b::crypto::test
