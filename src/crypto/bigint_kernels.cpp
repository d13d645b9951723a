#include "crypto/bigint_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "crypto/cpu_features.hpp"

namespace b2b::crypto::bigint_kernels {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// out = t - n when t >= n, else t, for t < 2n held in len + 1 limbs. Both
/// candidates are computed and one is kept by mask, so which one it was
/// does not show in the branch pattern. `out` must not alias `t`.
void reduce_once(u64* out, const u64* t, const u64* n, std::size_t len) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < len; ++i) {
    u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  // t >= n iff the subtraction did not borrow past the top limb.
  const u64 keep_diff = 0 - (t[len] | (borrow ^ 1));
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = (out[i] & keep_diff) | (t[i] & ~keep_diff);
  }
}

}  // namespace

void mul_portable(u64* out, const u64* a, const u64* b, const Modulus& mod,
                  u64* scratch) {
  // CIOS: interleave t += a_i * b with one limb of reduction per step.
  const std::size_t len = mod.len;
  const u64* n = mod.limbs;
  u64* t = scratch;  // len + 2 limbs
  std::fill(t, t + len + 1, 0);
  for (std::size_t i = 0; i < len; ++i) {
    const u64 a_i = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < len; ++j) {
      u128 cur = static_cast<u128>(a_i) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[len]) + carry;
    t[len] = static_cast<u64>(top);
    t[len + 1] = static_cast<u64>(top >> 64);

    // t = (t + m * n) / 2^64, with m chosen so the low limb cancels.
    const u64 m = t[0] * mod.n0_inv;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < len; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    top = static_cast<u128>(t[len]) + carry;
    t[len - 1] = static_cast<u64>(top);
    t[len] = t[len + 1] + static_cast<u64>(top >> 64);
  }
  reduce_once(out, t, n, len);
}

void sqr_portable(u64* out, const u64* a, const Modulus& mod, u64* scratch) {
  // Full square with each cross product computed once and doubled, then
  // one reduction of the 2 * len limb result.
  const std::size_t len = mod.len;
  u64* p = scratch;
  std::fill(p, p + 2 * len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    u64 carry = 0;
    for (std::size_t j = i + 1; j < len; ++j) {
      u128 cur = static_cast<u128>(a[i]) * a[j] + p[i + j] + carry;
      p[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    p[i + len] = carry;
  }
  u64 shifted_out = 0;
  for (std::size_t k = 0; k < 2 * len; ++k) {
    u64 limb = p[k];
    p[k] = (limb << 1) | shifted_out;
    shifted_out = limb >> 63;
  }
  u64 carry = 0;
  for (std::size_t i = 0; i < len; ++i) {
    u128 cur = static_cast<u128>(a[i]) * a[i] + p[2 * i] + carry;
    p[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(p[2 * i + 1]) + static_cast<u64>(cur >> 64);
    p[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  redc_portable(out, p, mod);
}

void redc_portable(u64* out, u64* p, const Modulus& mod) {
  // Clear one low limb per step; `pending` is the carry owed to the limb
  // above the one the step finishes.
  const std::size_t len = mod.len;
  const u64* n = mod.limbs;
  u64 pending = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const u64 m = p[i] * mod.n0_inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < len; ++j) {
      u128 cur = static_cast<u128>(m) * n[j] + p[i + j] + carry;
      p[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(p[i + len]) + carry + pending;
    p[i + len] = static_cast<u64>(cur);
    pending = static_cast<u64>(cur >> 64);
  }
  p[2 * len] = pending;
  reduce_once(out, p + len, n, len);
}

#if defined(__x86_64__)

namespace {

// The 8-limb CIOS in inline asm. Compilers lower _addcarryx_u64 to one
// adc chain, so the two-chain schedule below has to be spelled out.
//
// Nine accumulator limbs, the two product halves and rdx (the mulx
// multiplier) take twelve of the fourteen registers beside rsp and rbp.
// Everything else goes through one more, `f`, pointing at an AdxFrame on
// the stack with copies of the operands and the modulus. Holding b and n
// in registers and the rest in stack operands does not compile under
// ASan ("impossible constraints"): GCC then wants a register of its own
// to address the instrumented locals.
struct AdxFrame {
  u64 a[8];
  u64 b[8];
  u64 n[8];
  u64 n0_inv;
  u64 zero;   // memory source for the carry folds (adcx/adox take no imm)
  u64 spill;  // the accumulator's tenth limb, see B2B_CIOS_STEP
};
static_assert(offsetof(AdxFrame, b) == 64 && offsetof(AdxFrame, n) == 128 &&
              offsetof(AdxFrame, n0_inv) == 192 &&
              offsetof(AdxFrame, zero) == 200 &&
              offsetof(AdxFrame, spill) == 208);
#define B2B_N0_INV "192(%[f])"
#define B2B_ZERO "200(%[f])"
#define B2B_SPILL "208(%[f])"

// (hi:lo) = rdx * f[base + off]; tj += lo on the OF chain (adox) and
// tj1 += hi on the CF chain (adcx).
#define B2B_MULX_ADD(base, off, tj, tj1)                   \
  "mulxq " #base "+" #off "(%[f]), %[lo], %[hi]\n\t"     \
  "adoxq %[lo], %[" #tj "]\n\t"                          \
  "adcxq %[hi], %[" #tj1 "]\n\t"

// t0..t8 += rdx * (the 8 limbs at f + base), both chains starting clear.
// The carries out of t7 (OF) and out of t8 (CF) are left in the flags.
#define B2B_MULX_ROW(base, t0, t1, t2, t3, t4, t5, t6, t7, t8) \
  "xorl %k[lo], %k[lo]\n\t"                                   \
  B2B_MULX_ADD(base, 0, t0, t1)                               \
  B2B_MULX_ADD(base, 8, t1, t2)                               \
  B2B_MULX_ADD(base, 16, t2, t3)                              \
  B2B_MULX_ADD(base, 24, t3, t4)                              \
  B2B_MULX_ADD(base, 32, t4, t5)                              \
  B2B_MULX_ADD(base, 40, t5, t6)                              \
  B2B_MULX_ADD(base, 48, t6, t7)                              \
  B2B_MULX_ADD(base, 56, t7, t8)

// One CIOS step on the accumulator t0..t8 (t8 is 0 or 1 on entry), for
// a_i at offset `ai` of the frame. Adding a_i * b can carry into a tenth
// limb (up to (2^64 + 1) * n when the top limb of n is near all-ones);
// that limb, 0 or 1, is parked in the spill slot. Adding m * n with
// m = t0 * n0_inv then zeroes t0, and the register that held t0 takes
// the tenth limb plus the last carries as the new top. The shift right
// by one limb is thus only a renaming: the next step passes t1..t8, t0.
#define B2B_CIOS_STEP(ai, t0, t1, t2, t3, t4, t5, t6, t7, t8) \
  "movq " #ai "(%[f]), %%rdx\n\t"                            \
  B2B_MULX_ROW(64, t0, t1, t2, t3, t4, t5, t6, t7, t8)       \
  "movl $0, %k[lo]\n\t"                                      \
  "adoxq " B2B_ZERO ", %[" #t8 "]\n\t"                       \
  "adcxq " B2B_ZERO ", %[lo]\n\t"                            \
  "adoxq " B2B_ZERO ", %[lo]\n\t"                            \
  "movq %[lo], " B2B_SPILL "\n\t"                            \
  "movq %[" #t0 "], %%rdx\n\t"                               \
  "imulq " B2B_N0_INV ", %%rdx\n\t"                          \
  B2B_MULX_ROW(128, t0, t1, t2, t3, t4, t5, t6, t7, t8)      \
  "movq " B2B_SPILL ", %[" #t0 "]\n\t"                       \
  "adoxq " B2B_ZERO ", %[" #t8 "]\n\t"                       \
  "adcxq " B2B_ZERO ", %[" #t0 "]\n\t"                       \
  "adoxq " B2B_ZERO ", %[" #t0 "]\n\t"

void mul8_adx(u64* out, const u64* a, const u64* b, const Modulus& mod,
              u64* /*scratch*/) {
  AdxFrame frame;
  std::memcpy(frame.a, a, sizeof frame.a);
  std::memcpy(frame.b, b, sizeof frame.b);
  std::memcpy(frame.n, mod.limbs, sizeof frame.n);
  frame.n0_inv = mod.n0_inv;
  frame.zero = 0;
  frame.spill = 0;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0, t7 = 0, t8 = 0;
  u64 lo = 0, hi = 0;
  asm("xorl %k[t0], %k[t0]\n\t"
      "xorl %k[t1], %k[t1]\n\t"
      "xorl %k[t2], %k[t2]\n\t"
      "xorl %k[t3], %k[t3]\n\t"
      "xorl %k[t4], %k[t4]\n\t"
      "xorl %k[t5], %k[t5]\n\t"
      "xorl %k[t6], %k[t6]\n\t"
      "xorl %k[t7], %k[t7]\n\t"
      "xorl %k[t8], %k[t8]\n\t"
      B2B_CIOS_STEP(0, t0, t1, t2, t3, t4, t5, t6, t7, t8)
      B2B_CIOS_STEP(8, t1, t2, t3, t4, t5, t6, t7, t8, t0)
      B2B_CIOS_STEP(16, t2, t3, t4, t5, t6, t7, t8, t0, t1)
      B2B_CIOS_STEP(24, t3, t4, t5, t6, t7, t8, t0, t1, t2)
      B2B_CIOS_STEP(32, t4, t5, t6, t7, t8, t0, t1, t2, t3)
      B2B_CIOS_STEP(40, t5, t6, t7, t8, t0, t1, t2, t3, t4)
      B2B_CIOS_STEP(48, t6, t7, t8, t0, t1, t2, t3, t4, t5)
      B2B_CIOS_STEP(56, t7, t8, t0, t1, t2, t3, t4, t5, t6)
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
        [t4] "=&r"(t4), [t5] "=&r"(t5), [t6] "=&r"(t6), [t7] "=&r"(t7),
        [t8] "=&r"(t8), [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [f] "r"(&frame)
      : "rdx", "cc", "memory");
  // Eight renamings later the accumulator, low limb first, is t8, t0..t7.
  const u64 t[9] = {t8, t0, t1, t2, t3, t4, t5, t6, t7};
  reduce_once(out, t, mod.limbs, 8);
}

#undef B2B_CIOS_STEP
#undef B2B_MULX_ROW
#undef B2B_MULX_ADD
#undef B2B_SPILL
#undef B2B_ZERO
#undef B2B_N0_INV

}  // namespace

MulFn adx_mul8_kernel() {
  return cpu::features().bmi2_adx ? mul8_adx : nullptr;
}

#else

MulFn adx_mul8_kernel() { return nullptr; }

#endif

namespace {

/// The 8-limb kernel in use, or nullptr for the portable loops.
MulFn chosen_mul8() {
  static const MulFn kernel = adx_mul8_kernel();
  return kernel;
}

}  // namespace

void mul(u64* out, const u64* a, const u64* b, const Modulus& n,
         u64* scratch) {
  const MulFn mul8 = chosen_mul8();
  if (n.len == 8 && mul8 != nullptr) {
    mul8(out, a, b, n, scratch);
  } else {
    mul_portable(out, a, b, n, scratch);
  }
}

void sqr(u64* out, const u64* a, const Modulus& n, u64* scratch) {
  const MulFn mul8 = chosen_mul8();
  if (n.len == 8 && mul8 != nullptr) {
    mul8(out, a, a, n, scratch);
  } else {
    sqr_portable(out, a, n, scratch);
  }
}

}  // namespace b2b::crypto::bigint_kernels
