// The Montgomery multiply kernels behind MontgomeryContext (DESIGN.md §5).
//
// Internal to crypto/: callers multiply through MontgomeryContext, which
// hands every product and square to mul()/sqr() here. Those pick a kernel
// once, on first use, from what CPUID reports. This header exists so the
// differential test (and the kernel microbenchmark) can run each kernel
// directly; nothing else should include it.
//
// Every kernel works on little-endian limb buffers of the modulus's width,
// with operands below the modulus, and keeps the CIOS shape of the
// portable one: no branch and no memory index depends on operand values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace b2b::crypto::bigint_kernels {

/// An odd modulus n > 1 of `len` limbs, as the kernels see it.
struct Modulus {
  const std::uint64_t* limbs;
  std::uint64_t n0_inv;  // -n^{-1} mod 2^64
  std::size_t len;
};

/// out = a * b * R^{-1} mod n, R = 2^(64 * len), for a, b < n. `out` may
/// alias `a` or `b`; `scratch` holds 2 * len + 1 limbs.
using MulFn = void (*)(std::uint64_t* out, const std::uint64_t* a,
                       const std::uint64_t* b, const Modulus& n,
                       std::uint64_t* scratch);

/// The portable kernels: 64x64->128 products in plain C++, any width.
void mul_portable(std::uint64_t* out, const std::uint64_t* a,
                  const std::uint64_t* b, const Modulus& n,
                  std::uint64_t* scratch);
/// out = a^2 * R^{-1} mod n, each cross product computed once.
void sqr_portable(std::uint64_t* out, const std::uint64_t* a,
                  const Modulus& n, std::uint64_t* scratch);
/// out = product * R^{-1} mod n, for a product < n * R held in the first
/// 2 * len limbs of `product` (which it overwrites; it must have
/// 2 * len + 1 limbs).
void redc_portable(std::uint64_t* out, std::uint64_t* product,
                   const Modulus& n);

/// The x86-64 BMI2+ADX kernel for 8-limb moduli (RSA-1024 CRT halves): an
/// unrolled CIOS with mulx and two carry chains (adcx, adox) and the
/// accumulator in registers. nullptr when this CPU lacks BMI2 or ADX
/// (always nullptr on other targets). CPUID is read once.
MulFn adx_mul8_kernel();

/// The kernels MontgomeryContext uses: adx_mul8_kernel() for 8-limb moduli
/// when there is one (squares go through it as a * a), else the portable
/// ones. Chosen on the first call, thread-safely.
void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         const Modulus& n, std::uint64_t* scratch);
void sqr(std::uint64_t* out, const std::uint64_t* a, const Modulus& n,
         std::uint64_t* scratch);

}  // namespace b2b::crypto::bigint_kernels
