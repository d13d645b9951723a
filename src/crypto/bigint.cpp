#include "crypto/bigint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/error.hpp"
#include "crypto/bigint_kernels.hpp"

namespace b2b::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("BigInt::from_hex: invalid character");
}

}  // namespace

BigInt::BigInt(u64 value) {
  if (value != 0) limbs_.push_back(value);
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[0] is most significant; byte i contributes to bit position
    // 8 * (size - 1 - i).
    std::size_t bit_pos = 8 * (bytes.size() - 1 - i);
    out.limbs_[bit_pos / 64] |= static_cast<u64>(bytes[i]) << (bit_pos % 64);
  }
  out.normalize();
  return out;
}

Bytes BigInt::to_bytes_be() const {
  if (is_zero()) return {};
  std::size_t bytes = (bit_length() + 7) / 8;
  return to_bytes_be(bytes);
}

Bytes BigInt::to_bytes_be(std::size_t width) const {
  if (bit_length() > width * 8) {
    throw std::invalid_argument("BigInt::to_bytes_be: value too large");
  }
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    std::size_t bit_pos = 8 * (width - 1 - i);
    out[i] = static_cast<std::uint8_t>(
        (limb(bit_pos / 64) >> (bit_pos % 64)) & 0xff);
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  for (char c : hex) {
    out = (out << 4) + BigInt(static_cast<u64>(hex_value(c)));
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      int digit = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && digit == 0) continue;
      leading = false;
      out.push_back("0123456789abcdef"[digit]);
    }
  }
  return out;
}

BigInt BigInt::from_decimal(std::string_view dec) {
  BigInt out;
  BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("BigInt::from_decimal: invalid character");
    }
    out = out * ten + BigInt(static_cast<u64>(c - '0'));
  }
  return out;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt value = *this;
  BigInt ten(10);
  while (!value.is_zero()) {
    auto [q, r] = divmod(value, ten);
    out.push_back(static_cast<char>('0' + r.low_u64()));
    value = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb_index = i / 64;
  if (limb_index >= limbs_.size()) return false;
  return ((limbs_[limb_index] >> (i % 64)) & 1) != 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(limb(i)) + rhs.limb(i) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) {
    throw std::invalid_argument("BigInt::operator-: negative result");
  }
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs_limb = limbs_[i];
    u128 sub = static_cast<u128>(rhs.limb(i)) + borrow;
    if (lhs_limb >= sub) {
      out.limbs_[i] = static_cast<u64>(lhs_limb - sub);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<u64>((static_cast<u128>(1) << 64) +
                                       lhs_limb - sub);
      borrow = 1;
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(limbs_[i]) * rhs.limbs_[j] +
                 out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    if (bits == 0) return out;
  }
  if (is_zero()) return {};
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& numerator,
                              const BigInt& denominator) {
  if (denominator.is_zero()) {
    throw std::domain_error("BigInt::divmod: division by zero");
  }
  if (numerator < denominator) {
    return {BigInt{}, numerator};
  }
  // Single-limb divisor: simple short division.
  if (denominator.limbs_.size() == 1) {
    u64 d = denominator.limbs_[0];
    BigInt quotient;
    quotient.limbs_.assign(numerator.limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = numerator.limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | numerator.limbs_[i];
      quotient.limbs_[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    quotient.normalize();
    return {quotient, BigInt(rem)};
  }

  // Knuth algorithm D. Normalize so the divisor's top limb has its high
  // bit set; this guarantees the quotient-digit estimate is off by at
  // most 2 and the correction loop below terminates.
  int shift = 0;
  {
    u64 top = denominator.limbs_.back();
    while ((top & (static_cast<u64>(1) << 63)) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  BigInt u = numerator << shift;
  BigInt v = denominator << shift;
  std::size_t n = v.limbs_.size();
  std::size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m + n + 1 limbs

  BigInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n] * B + u[j+n-1]) / v[n-1].
    u128 numer = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 q_hat = numer / v.limbs_[n - 1];
    u128 r_hat = numer % v.limbs_[n - 1];
    constexpr u128 kBase = static_cast<u128>(1) << 64;
    while (q_hat >= kBase ||
           q_hat * v.limbs_[n - 2] > ((r_hat << 64) | u.limbs_[j + n - 2])) {
      --q_hat;
      r_hat += v.limbs_[n - 1];
      if (r_hat >= kBase) break;
    }
    // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 product = q_hat * v.limbs_[i] + carry;
      carry = product >> 64;
      u64 product_lo = static_cast<u64>(product);
      u128 diff = static_cast<u128>(u.limbs_[j + i]) - product_lo - borrow;
      u.limbs_[j + i] = static_cast<u64>(diff);
      borrow = (diff >> 64) & 1;  // 1 if we wrapped
    }
    u128 diff = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    u.limbs_[j + n] = static_cast<u64>(diff);
    bool negative = ((diff >> 64) & 1) != 0;

    if (negative) {
      // q_hat was one too large: add back one multiple of v.
      --q_hat;
      u128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + add_carry;
        u.limbs_[j + i] = static_cast<u64>(sum);
        add_carry = sum >> 64;
      }
      u.limbs_[j + n] = static_cast<u64>(u.limbs_[j + n] + add_carry);
    }
    quotient.limbs_[j] = static_cast<u64>(q_hat);
  }

  quotient.normalize();
  u.limbs_.resize(n);
  u.normalize();
  BigInt remainder = u >> shift;
  return {quotient, remainder};
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  return divmod(*this, rhs).quotient;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  return divmod(*this, rhs).remainder;
}

BigInt gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

BigInt lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) {
    throw std::domain_error("lcm of zero");
  }
  return (a / gcd(a, b)) * b;
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking only the coefficient of `a`, with values kept
  // non-negative by representing the coefficient pair as (value, sign).
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  BigInt r0 = m;
  BigInt r1 = a % m;
  // s pairs: coefficient of a modulo m; track as non-negative with sign.
  BigInt s0;          // 0
  BigInt s1(1);       // 1
  bool s0_neg = false;
  bool s1_neg = false;

  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::divmod(r0, r1);
    // s2 = s0 - q * s1 with signs.
    BigInt qs1 = q * s1;
    BigInt s2;
    bool s2_neg = false;
    if (s0_neg == s1_neg) {
      // s0 and q*s1 have the same sign: s2 = |s0| - |q s1| (sign flips if
      // the subtraction would go negative).
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s0_neg = s1_neg;
    s1 = s2;
    s1_neg = s2_neg;
  }
  if (!(r0 == BigInt(1))) {
    throw CryptoError("mod_inverse: inverse does not exist");
  }
  BigInt result = s0 % m;
  if (s0_neg && !result.is_zero()) result = m - result;
  return result;
}

namespace {

/// All-ones when a == b, else zero, without a data-dependent branch.
u64 eq_mask(u64 a, u64 b) {
  u64 diff = a ^ b;
  return ((diff | (0 - diff)) >> 63) - 1;
}

/// out = table[index] for a table of 16 values of len limbs. Every entry
/// is read, so the memory access pattern does not depend on `index`.
void select_entry(u64* out, const u64* table, std::size_t len, u64 index) {
  std::fill(out, out + len, 0);
  for (u64 k = 0; k < 16; ++k) {
    const u64 mask = eq_mask(k, index);
    const u64* entry = table + k * len;
    for (std::size_t i = 0; i < len; ++i) out[i] |= entry[i] & mask;
  }
}

/// The `index`th 4-bit window of `exponent`, counting from the low end.
u64 window_at(const BigInt& exponent, std::size_t index) {
  return (exponent.limb(index / 16) >> (4 * (index % 16))) & 0xf;
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigInt& modulus)
    : modulus_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt(1)) {
    throw std::invalid_argument("MontgomeryContext: modulus must be odd > 1");
  }
  // n0_inv = -modulus^{-1} mod 2^64 via Newton iteration on 64-bit words.
  u64 m0 = modulus.limb(0);
  u64 inv = m0;  // correct to 3 bits initially (m0 odd)
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  n0_inv_ = ~inv + 1;  // -inv mod 2^64

  BigInt r_mod = (BigInt(1) << (64 * width())) % modulus_;
  BigInt r2_mod = (r_mod * r_mod) % modulus_;
  one_ = r_mod.limbs_;
  r2_ = r2_mod.limbs_;
  one_.resize(width(), 0);
  r2_.resize(width(), 0);
}

bigint_kernels::Modulus MontgomeryContext::kernel_modulus() const {
  return {modulus_.limbs_.data(), n0_inv_, width()};
}

void MontgomeryContext::mul_limbs(u64* out, const u64* a, const u64* b,
                                  u64* scratch) const {
  bigint_kernels::mul(out, a, b, kernel_modulus(), scratch);
}

void MontgomeryContext::sqr_limbs(u64* out, const u64* a,
                                  u64* scratch) const {
  bigint_kernels::sqr(out, a, kernel_modulus(), scratch);
}

void MontgomeryContext::load(u64* out, const BigInt& value) const {
  std::size_t count = std::min(value.limbs_.size(), width());
  std::copy_n(value.limbs_.begin(), count, out);
  std::fill(out + count, out + width(), 0);
}

BigInt MontgomeryContext::from_mont_limbs(const u64* value,
                                          u64* scratch) const {
  // Reducing the value on its own divides out R.
  const std::size_t len = width();
  std::copy_n(value, len, scratch);
  std::fill(scratch + len, scratch + 2 * len, 0);
  BigInt out;
  out.limbs_.resize(len);
  bigint_kernels::redc_portable(out.limbs_.data(), scratch, kernel_modulus());
  out.normalize();
  return out;
}

BigInt MontgomeryContext::to_mont(const BigInt& value) const {
  std::vector<u64> buf(3 * width() + 1);
  load(buf.data(), value % modulus_);
  BigInt out;
  out.limbs_.resize(width());
  mul_limbs(out.limbs_.data(), buf.data(), r2_.data(), buf.data() + width());
  out.normalize();
  return out;
}

BigInt MontgomeryContext::from_mont(const BigInt& value) const {
  std::vector<u64> buf(3 * width() + 1);
  load(buf.data(), value);
  return from_mont_limbs(buf.data(), buf.data() + width());
}

BigInt MontgomeryContext::mul(const BigInt& a, const BigInt& b) const {
  std::vector<u64> buf(4 * width() + 1);
  u64* b_limbs = buf.data() + width();
  load(buf.data(), a);
  load(b_limbs, b);
  BigInt out;
  out.limbs_.resize(width());
  mul_limbs(out.limbs_.data(), buf.data(), b_limbs, b_limbs + width());
  out.normalize();
  return out;
}

BigInt MontgomeryContext::sqr(const BigInt& a) const {
  std::vector<u64> buf(3 * width() + 1);
  load(buf.data(), a);
  BigInt out;
  out.limbs_.resize(width());
  sqr_limbs(out.limbs_.data(), buf.data(), buf.data() + width());
  out.normalize();
  return out;
}

BigInt MontgomeryContext::pow(const BigInt& base,
                              const BigInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigInt(1);  // the modulus is > 1
  const std::size_t len = width();
  // Exponents of up to 64 bits (the public e, batch screening multipliers)
  // go bit by bit: building a window table costs more than it saves there.
  const bool windowed = bits > 64;
  // All scratch in one allocation: accumulator, base, kernel scratch and,
  // for long exponents, the table of base^0 .. base^15.
  std::vector<u64> buf((windowed ? 20 : 4) * len + 1);
  u64* acc = buf.data();
  u64* x = acc + len;
  u64* scratch = x + len;
  load(x, base % modulus_);
  mul_limbs(x, x, r2_.data(), scratch);

  if (!windowed) {
    std::copy_n(x, len, acc);
    for (std::size_t i = bits - 1; i-- > 0;) {
      sqr_limbs(acc, acc, scratch);
      if (exponent.bit(i)) mul_limbs(acc, acc, x, scratch);
    }
    return from_mont_limbs(acc, scratch);
  }

  // Fixed 4-bit window: four squarings and one table multiply per window,
  // whatever the window's bits, with the entry read by a full-table scan.
  u64* table = scratch + 2 * len + 1;
  std::copy(one_.begin(), one_.end(), table);
  std::copy_n(x, len, table + len);
  for (std::size_t k = 2; k < 16; ++k) {
    mul_limbs(table + k * len, table + (k - 1) * len, x, scratch);
  }
  const std::size_t windows = (bits + 3) / 4;
  select_entry(acc, table, len, window_at(exponent, windows - 1));
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) sqr_limbs(acc, acc, scratch);
    select_entry(x, table, len, window_at(exponent, w));
    mul_limbs(acc, acc, x, scratch);
  }
  return from_mont_limbs(acc, scratch);
}

BigInt mod_exp(const BigInt& base, const BigInt& exponent,
               const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return {};
  if (modulus.is_odd()) {
    return MontgomeryContext(modulus).pow(base, exponent);
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

}  // namespace b2b::crypto
