#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace b2b::crypto::cpu {

namespace {

Features probe() {
  Features out;
#if defined(__x86_64__)
  // CPUID leaf 1 ECX and leaf 7 (subleaf 0) EBX feature bits.
  constexpr unsigned kSsse3 = 1u << 9;
  constexpr unsigned kSse41 = 1u << 19;
  constexpr unsigned kBmi2 = 1u << 8;
  constexpr unsigned kAdx = 1u << 19;
  constexpr unsigned kSha = 1u << 29;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return out;
  const unsigned leaf1_ecx = ecx;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return out;
  out.sha_ni = (leaf1_ecx & kSsse3) != 0 && (leaf1_ecx & kSse41) != 0 &&
               (ebx & kSha) != 0;
  out.bmi2_adx = (ebx & kBmi2) != 0 && (ebx & kAdx) != 0;
#endif
  return out;
}

}  // namespace

const Features& features() {
  static const Features cached = probe();
  return cached;
}

}  // namespace b2b::crypto::cpu
