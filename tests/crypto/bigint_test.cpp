// Unit and property tests for the arbitrary-precision integer substrate.
#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "crypto/bigint_kernels.hpp"
#include "crypto/chacha20.hpp"
#include "tests/support/reference_mod_exp.hpp"

namespace b2b::crypto {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_EQ(zero.to_decimal(), "0");
  EXPECT_TRUE(zero.to_bytes_be().empty());
}

TEST(BigIntTest, SmallValueRoundTrips) {
  BigInt v(0xdeadbeefULL);
  EXPECT_EQ(v.to_hex(), "deadbeef");
  EXPECT_EQ(v.low_u64(), 0xdeadbeefULL);
  EXPECT_EQ(BigInt::from_hex("deadbeef"), v);
  EXPECT_EQ(BigInt::from_decimal("3735928559"), v);
  EXPECT_EQ(v.to_decimal(), "3735928559");
}

TEST(BigIntTest, BytesBigEndianRoundTrip) {
  Bytes raw = from_hex("0102030405060708090a0b0c0d0e0f10");
  BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_bytes_be(), raw);
  EXPECT_EQ(v.to_hex(), "102030405060708090a0b0c0d0e0f10");
}

TEST(BigIntTest, FromBytesIgnoresLeadingZeros) {
  EXPECT_EQ(BigInt::from_bytes_be(from_hex("000000ff")), BigInt(255));
}

TEST(BigIntTest, FixedWidthBytesPadsAndThrows) {
  BigInt v(0x1234);
  EXPECT_EQ(v.to_bytes_be(4), from_hex("00001234"));
  EXPECT_THROW(v.to_bytes_be(1), std::invalid_argument);
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt max64 = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ(max64 + BigInt(1), BigInt::from_hex("10000000000000000"));
}

TEST(BigIntTest, SubtractionBorrowsAcrossLimbs) {
  BigInt big = BigInt::from_hex("10000000000000000");
  EXPECT_EQ(big - BigInt(1), BigInt::from_hex("ffffffffffffffff"));
}

TEST(BigIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt(1) - BigInt(2), std::invalid_argument);
}

TEST(BigIntTest, MultiplicationMatchesKnownProduct) {
  // 2^128 - 1 squared.
  BigInt v = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((v * v).to_hex(),
            "fffffffffffffffffffffffffffffffe"
            "00000000000000000000000000000001");
}

TEST(BigIntTest, ShiftLeftRightInverse) {
  BigInt v = BigInt::from_hex("123456789abcdef0123456789abcdef");
  for (std::size_t shift : {1u, 7u, 64u, 65u, 130u}) {
    EXPECT_EQ((v << shift) >> shift, v) << "shift=" << shift;
  }
}

TEST(BigIntTest, ShiftRightDropsLowBits) {
  EXPECT_EQ(BigInt(0xff) >> 4, BigInt(0x0f));
  EXPECT_EQ(BigInt(1) >> 1, BigInt(0));
}

TEST(BigIntTest, DivModByZeroThrows) {
  EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(BigIntTest, DivModSingleLimb) {
  auto [q, r] = BigInt::divmod(BigInt::from_decimal("1000000000000000000007"),
                               BigInt(10));
  EXPECT_EQ(q.to_decimal(), "100000000000000000000");
  EXPECT_EQ(r, BigInt(7));
}

TEST(BigIntTest, DivModMultiLimbKnownValues) {
  BigInt n = BigInt::from_hex(
      "1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f809");
  BigInt d = BigInt::from_hex("fedcba98765432100123456789abcdef");
  auto [q, r] = BigInt::divmod(n, d);
  EXPECT_EQ(q * d + r, n);
  EXPECT_LT(r, d);
}

TEST(BigIntTest, ComparisonOrdering) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt(2));
  EXPECT_EQ(BigInt(5) <=> BigInt(5), std::strong_ordering::equal);
}

TEST(BigIntTest, DecimalRoundTripLargeValue) {
  std::string dec = "123456789012345678901234567890123456789012345678901234";
  EXPECT_EQ(BigInt::from_decimal(dec).to_decimal(), dec);
}

// Property: (a*b) / b == a and (a*b) % b == 0 for random a, b.
class BigIntPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntPropertyTest, DivModInvertsMultiplication) {
  ChaCha20Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(40)));
    BigInt b = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(40)));
    if (b.is_zero()) continue;
    BigInt product = a * b;
    auto [q, r] = BigInt::divmod(product, b);
    EXPECT_EQ(q, a);
    EXPECT_TRUE(r.is_zero());
  }
}

TEST_P(BigIntPropertyTest, DivModIdentityForRandomPairs) {
  ChaCha20Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 20; ++i) {
    BigInt n = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(64)));
    BigInt d = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(32)));
    if (d.is_zero()) continue;
    auto [q, r] = BigInt::divmod(n, d);
    EXPECT_EQ(q * d + r, n);
    EXPECT_LT(r, d);
  }
}

TEST_P(BigIntPropertyTest, AdditionSubtractionInverse) {
  ChaCha20Rng rng(GetParam() + 17);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(48)));
    BigInt b = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(48)));
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BigIntPropertyTest, HexRoundTrip) {
  ChaCha20Rng rng(GetParam() + 101);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(64)));
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
    EXPECT_EQ(BigInt::from_decimal(a.to_decimal()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 2026));

TEST(BigIntModExpTest, KnownSmallValues) {
  EXPECT_EQ(mod_exp(BigInt(4), BigInt(13), BigInt(497)), BigInt(445));
  EXPECT_EQ(mod_exp(BigInt(2), BigInt(10), BigInt(1025)), BigInt(1024));
  EXPECT_EQ(mod_exp(BigInt(0), BigInt(0), BigInt(7)), BigInt(1));
}

TEST(BigIntModExpTest, ZeroModulusThrows) {
  EXPECT_THROW(mod_exp(BigInt(2), BigInt(2), BigInt(0)), std::domain_error);
}

TEST(BigIntModExpTest, ModulusOneGivesZero) {
  EXPECT_EQ(mod_exp(BigInt(123), BigInt(456), BigInt(1)), BigInt(0));
}

TEST(BigIntModExpTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p not dividing a.
  BigInt p = BigInt::from_decimal("1000000007");
  for (std::uint64_t a : {2ULL, 3ULL, 999999999ULL}) {
    EXPECT_EQ(mod_exp(BigInt(a), p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigIntModExpTest, EvenModulusPathAgrees) {
  // Cross-check the non-Montgomery path against known identity:
  // 3^5 mod 16 = 243 mod 16 = 3.
  EXPECT_EQ(mod_exp(BigInt(3), BigInt(5), BigInt(16)), BigInt(3));
}

TEST(BigIntModExpTest, MontgomeryMatchesNaiveOnRandomInputs) {
  ChaCha20Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    Bytes mod_bytes = rng.bytes(24);
    mod_bytes.back() |= 1;  // odd
    mod_bytes.front() |= 0x80;
    BigInt m = BigInt::from_bytes_be(mod_bytes);
    BigInt base = BigInt::from_bytes_be(rng.bytes(24)) % m;
    BigInt exp = BigInt::from_bytes_be(rng.bytes(8));
    // Naive: repeated square-and-multiply with divmod reduction.
    BigInt expect(1);
    for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
      expect = (expect * expect) % m;
      if (exp.bit(bit)) expect = (expect * base) % m;
    }
    EXPECT_EQ(mod_exp(base, exp, m), expect) << "iteration " << i;
  }
}

TEST(MontgomeryContextTest, RequiresOddModulus) {
  EXPECT_THROW(MontgomeryContext(BigInt(10)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(1)), std::invalid_argument);
}

TEST(MontgomeryContextTest, ToFromMontRoundTrip) {
  BigInt m = BigInt::from_decimal("1000000000000000000000000000057");
  MontgomeryContext ctx(m);
  ChaCha20Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    BigInt v = BigInt::from_bytes_be(rng.bytes(12)) % m;
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(v)), v);
  }
}

TEST(MontgomeryContextTest, MulMatchesPlainModularProduct) {
  BigInt m = BigInt::from_decimal("982451653");
  MontgomeryContext ctx(m);
  BigInt a(123456789), b(987654321);
  BigInt got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
  EXPECT_EQ(got, (a * b) % m);
}

// --- Differential battery: mod_exp and MontgomeryContext against the
// --- test-only reference (the pre-rewrite implementation), over random
// --- moduli of 1, 8, 16 and 32 limbs. CI sweeps it via B2B_BIGINT_SEED.

std::uint64_t bigint_seed() {
  const char* seed = std::getenv("B2B_BIGINT_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 1;
}

BigInt random_bits(ChaCha20Rng& rng, std::size_t bits) {
  if (bits == 0) return {};
  Bytes raw = rng.bytes((bits + 7) / 8);
  std::size_t excess = raw.size() * 8 - bits;
  raw[0] = static_cast<std::uint8_t>((raw[0] & (0xff >> excess)) |
                                     (0x80 >> excess));
  return BigInt::from_bytes_be(raw);
}

BigInt all_ones(std::size_t bits) { return (BigInt(1) << bits) - BigInt(1); }

class BigIntDifferentialTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Odd moduli of exactly GetParam() limbs: random ones, one whose top
  /// limb is all ones (the final subtraction fires often), one whose top
  /// limb is small (R is far above n).
  std::vector<BigInt> moduli(ChaCha20Rng& rng) const {
    const std::size_t limbs = GetParam();
    std::vector<BigInt> out;
    for (int i = 0; i < 3; ++i) out.push_back(random_bits(rng, 64 * limbs));
    BigInt low = random_bits(rng, 64 * limbs) >> 64;
    out.push_back((all_ones(64) << (64 * (limbs - 1))) + low);
    out.push_back((BigInt(1 + rng.next_below(255)) << (64 * (limbs - 1))) +
                  low);
    for (BigInt& m : out) {
      if (!m.is_odd()) m = m + BigInt(1);
      if (m <= BigInt(1)) m = BigInt(3);
    }
    return out;
  }
};

TEST_P(BigIntDifferentialTest, ModExpAndPowMatchReference) {
  ChaCha20Rng rng(bigint_seed() * 1000 + GetParam());
  for (const BigInt& m : moduli(rng)) {
    const std::size_t bits = m.bit_length();
    MontgomeryContext ctx(m);
    std::vector<BigInt> bases = {BigInt(), m - BigInt(1), m,
                                 m + random_bits(rng, bits),
                                 random_bits(rng, bits + 70),
                                 random_bits(rng, bits) % m};
    // 63/64/65 bits straddle the cut between the short-exponent path and
    // the fixed window; the long exponents are capped to keep the
    // reference (bit-at-a-time, byte round trip per multiply) quick.
    const std::size_t long_bits = std::min<std::size_t>(bits, 512);
    std::vector<BigInt> exponents = {
        BigInt(), BigInt(1), BigInt(65537), all_ones(63), all_ones(64),
        all_ones(65), all_ones(long_bits), random_bits(rng, 63),
        random_bits(rng, 64), random_bits(rng, 65),
        random_bits(rng, long_bits)};
    for (const BigInt& base : bases) {
      for (const BigInt& exponent : exponents) {
        BigInt want = test::reference_mod_exp(base, exponent, m);
        EXPECT_EQ(mod_exp(base, exponent, m), want)
            << "m=" << m.to_hex() << " base=" << base.to_hex()
            << " exp=" << exponent.to_hex();
        EXPECT_EQ(ctx.pow(base, exponent), want)
            << "m=" << m.to_hex() << " base=" << base.to_hex()
            << " exp=" << exponent.to_hex();
      }
    }
    // The even-modulus path stays the plain one.
    BigInt even = m + BigInt(1);
    BigInt base = random_bits(rng, bits);
    BigInt exponent = random_bits(rng, 70);
    EXPECT_EQ(mod_exp(base, exponent, even),
              test::reference_mod_exp(base, exponent, even));
  }
}

TEST_P(BigIntDifferentialTest, MulAndSqrMatchReference) {
  ChaCha20Rng rng(bigint_seed() * 1000 + 500 + GetParam());
  for (const BigInt& m : moduli(rng)) {
    MontgomeryContext ctx(m);
    test::ReferenceMontgomery ref(m);
    std::vector<BigInt> values = {BigInt(), BigInt(1), m - BigInt(1),
                                  m - BigInt(2), all_ones(64) % m};
    for (int i = 0; i < 8; ++i) {
      values.push_back(random_bits(rng, 64 * GetParam()) % m);
    }
    for (const BigInt& a : values) {
      EXPECT_EQ(ctx.to_mont(a), ref.to_mont(a)) << "a=" << a.to_hex();
      EXPECT_EQ(ctx.from_mont(a), ref.from_mont(a)) << "a=" << a.to_hex();
      EXPECT_EQ(ctx.sqr(a), ref.mul(a, a))
          << "m=" << m.to_hex() << " a=" << a.to_hex();
      for (const BigInt& b : values) {
        EXPECT_EQ(ctx.mul(a, b), ref.mul(a, b))
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

// --- Kernel legs: the limb kernels of bigint_kernels.hpp on raw buffers,
// --- the BMI2+ADX kernel against the portable one and both against the
// --- reference, plus pow through the dispatching kernels. The ADX legs
// --- skip on CPUs without BMI2/ADX and at widths it does not cover.

using bigint_kernels::MulFn;

/// The ADX kernel, or a skip with the reason.
#define REQUIRE_ADX_KERNEL(kernel)                                        \
  const MulFn kernel = bigint_kernels::adx_mul8_kernel();                \
  if ((kernel) == nullptr) {                                             \
    GTEST_SKIP() << "CPU lacks BMI2 or ADX (CPUID 7.EBX[8,19]): no ADX " \
                    "kernel to compare";                                 \
  }                                                                      \
  if (GetParam() != 8) {                                                 \
    GTEST_SKIP() << "the ADX kernel covers 8-limb moduli only";          \
  }

using Limbs = std::vector<std::uint64_t>;

Limbs limbs_of(const BigInt& value, std::size_t len) {
  Limbs out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = value.limb(i);
  return out;
}

BigInt from_limbs(const Limbs& limbs) {
  BigInt out;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    out = (out << 64) + BigInt(limbs[i]);
  }
  return out;
}

/// A modulus as the kernels take it, owning its limbs.
struct KernelModulus {
  explicit KernelModulus(const BigInt& m)
      : limbs(limbs_of(m, m.limb_count())) {
    std::uint64_t inv = limbs[0];  // Newton: limbs[0] * inv == 1 mod 2^64
    for (int i = 0; i < 6; ++i) inv *= 2 - limbs[0] * inv;
    mod = {limbs.data(), 0 - inv, limbs.size()};
  }
  KernelModulus(const KernelModulus&) = delete;
  KernelModulus& operator=(const KernelModulus&) = delete;

  /// The product under `kernel`, written over a copy of `a` (so `out`
  /// aliases an input, as it does inside pow).
  BigInt mul(MulFn kernel, const BigInt& a, const BigInt& b) const {
    Limbs out = limbs_of(a, mod.len);
    const Limbs b_limbs = limbs_of(b, mod.len);
    Limbs scratch(2 * mod.len + 1);
    kernel(out.data(), out.data(), b_limbs.data(), mod, scratch.data());
    return from_limbs(out);
  }
  BigInt sqr(void (*kernel)(std::uint64_t*, const std::uint64_t*,
                            const bigint_kernels::Modulus&, std::uint64_t*),
             const BigInt& a) const {
    Limbs out = limbs_of(a, mod.len);
    Limbs scratch(2 * mod.len + 1);
    kernel(out.data(), out.data(), mod, scratch.data());
    return from_limbs(out);
  }

  Limbs limbs;
  bigint_kernels::Modulus mod{};
};

/// The battery's moduli plus the all-ones modulus 2^(64 * limbs) - 1: with
/// every limb near all-ones, mid-step accumulators carry into the tenth
/// limb of the 8-limb kernel.
std::vector<BigInt> kernel_moduli(ChaCha20Rng& rng, std::size_t limbs,
                                  std::vector<BigInt> moduli) {
  moduli.push_back(all_ones(64 * limbs));
  moduli.push_back(all_ones(64 * limbs) -
                   (BigInt(rng.next_below(1u << 20)) << 1));
  return moduli;
}

/// Operands below `m`: 0, 1, 2, m - 1, m - 2, values just under m, R mod m
/// (Montgomery one), all-ones low limbs, and random ones.
std::vector<BigInt> kernel_operands(ChaCha20Rng& rng, const BigInt& m) {
  const std::size_t limbs = m.limb_count();
  const BigInt top = m - BigInt(1);
  std::vector<BigInt> out = {BigInt(), BigInt(1), BigInt(2) % m, top,
                             top - BigInt(1) % m,
                             top - BigInt(rng.next_below(1u << 16)) % m,
                             top - BigInt(rng.next_u64()) % m,
                             (BigInt(1) << (64 * limbs)) % m,
                             all_ones(64 * limbs - 1) % m,
                             all_ones(64 * (limbs - 1)) % m};
  for (int i = 0; i < 6; ++i) out.push_back(random_bits(rng, 64 * limbs) % m);
  return out;
}

TEST_P(BigIntDifferentialTest, AdxKernelMatchesPortableAndReferenceOnEdges) {
  REQUIRE_ADX_KERNEL(adx);
  ChaCha20Rng rng(bigint_seed() * 1000 + 600 + GetParam());
  for (const BigInt& m : kernel_moduli(rng, GetParam(), moduli(rng))) {
    const KernelModulus km(m);
    test::ReferenceMontgomery ref(m);
    const std::vector<BigInt> values = kernel_operands(rng, m);
    for (const BigInt& a : values) {
      const BigInt square = ref.mul(a, a);
      EXPECT_EQ(km.mul(adx, a, a), square)
          << "m=" << m.to_hex() << " a=" << a.to_hex();
      EXPECT_EQ(km.sqr(bigint_kernels::sqr_portable, a), square)
          << "m=" << m.to_hex() << " a=" << a.to_hex();
      for (const BigInt& b : values) {
        const BigInt want = ref.mul(a, b);
        EXPECT_EQ(km.mul(adx, a, b), want)
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
        EXPECT_EQ(km.mul(bigint_kernels::mul_portable, a, b), want)
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

TEST_P(BigIntDifferentialTest, AdxKernelMatchesPortableOnRandomOperands) {
  // Many random pairs, half of them with limbs biased towards all-ones,
  // where the carry chains run longest.
  REQUIRE_ADX_KERNEL(adx);
  ChaCha20Rng rng(bigint_seed() * 1000 + 700 + GetParam());
  for (const BigInt& m : kernel_moduli(rng, GetParam(), moduli(rng))) {
    const KernelModulus km(m);
    const std::size_t len = km.mod.len;
    Limbs a(len), b(len), want(len), got(len), scratch(2 * len + 1);
    for (int trial = 0; trial < 4000; ++trial) {
      for (Limbs* operand : {&a, &b}) {
        BigInt v = random_bits(rng, 64 * len);
        if (trial % 2 == 1) v = m - BigInt(1) - (v >> (64 * len / 2));
        *operand = limbs_of(v % m, len);
      }
      bigint_kernels::mul_portable(want.data(), a.data(), b.data(), km.mod,
                                   scratch.data());
      adx(got.data(), a.data(), b.data(), km.mod, scratch.data());
      ASSERT_EQ(got, want) << "m=" << m.to_hex() << " a="
                           << from_limbs(a).to_hex()
                           << " b=" << from_limbs(b).to_hex();
      adx(got.data(), a.data(), a.data(), km.mod, scratch.data());
      bigint_kernels::sqr_portable(want.data(), a.data(), km.mod,
                                   scratch.data());
      ASSERT_EQ(got, want) << "m=" << m.to_hex() << " a="
                           << from_limbs(a).to_hex();
    }
  }
}

TEST_P(BigIntDifferentialTest, DispatchedKernelsMatchPortableAndReference) {
  ChaCha20Rng rng(bigint_seed() * 1000 + 800 + GetParam());
  for (const BigInt& m : kernel_moduli(rng, GetParam(), moduli(rng))) {
    const KernelModulus km(m);
    test::ReferenceMontgomery ref(m);
    const std::vector<BigInt> values = kernel_operands(rng, m);
    for (const BigInt& a : values) {
      EXPECT_EQ(km.sqr(bigint_kernels::sqr, a), ref.mul(a, a))
          << "m=" << m.to_hex() << " a=" << a.to_hex();
      EXPECT_EQ(km.sqr(bigint_kernels::sqr, a),
                km.sqr(bigint_kernels::sqr_portable, a))
          << "m=" << m.to_hex() << " a=" << a.to_hex();
      for (const BigInt& b : values) {
        EXPECT_EQ(km.mul(bigint_kernels::mul, a, b), ref.mul(a, b))
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

TEST_P(BigIntDifferentialTest, PowThroughKernelDispatchMatchesReference) {
  // MontgomeryContext::pow squares and multiplies through the dispatching
  // kernels; the all-ones and small-top moduli are the carry edge cases.
  ChaCha20Rng rng(bigint_seed() * 1000 + 900 + GetParam());
  for (const BigInt& m : kernel_moduli(rng, GetParam(), moduli(rng))) {
    const std::size_t bits = m.bit_length();
    const MontgomeryContext ctx(m);
    const std::size_t long_bits = std::min<std::size_t>(bits, 512);
    for (const BigInt& base : {m - BigInt(1), m - BigInt(2),
                               random_bits(rng, bits) % m}) {
      for (const BigInt& exponent :
           {BigInt(65537), all_ones(64), all_ones(long_bits),
            random_bits(rng, long_bits)}) {
        EXPECT_EQ(ctx.pow(base, exponent),
                  test::reference_mod_exp(base, exponent, m))
            << "m=" << m.to_hex() << " base=" << base.to_hex()
            << " exp=" << exponent.to_hex();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, BigIntDifferentialTest,
                         ::testing::Values(1, 8, 16, 32));

TEST(NumberTheoryTest, GcdKnownValues) {
  EXPECT_EQ(gcd(BigInt(48), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(NumberTheoryTest, LcmKnownValuesAndZeroThrows) {
  EXPECT_EQ(lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_THROW(lcm(BigInt(0), BigInt(6)), std::domain_error);
}

TEST(NumberTheoryTest, ModInverseRoundTrip) {
  BigInt m = BigInt::from_decimal("1000000007");
  ChaCha20Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt(1 + rng.next_below(1000000006));
    BigInt inv = mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(NumberTheoryTest, ModInverseNonexistentThrows) {
  EXPECT_THROW(mod_inverse(BigInt(4), BigInt(8)), CryptoError);
}

}  // namespace
}  // namespace b2b::crypto
