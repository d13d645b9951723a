// The CPU extensions the crypto kernels can use (DESIGN.md §5).
//
// Internal to crypto/: each kernel family (SHA-256 compression, the
// Montgomery multiply) asks here once, on first use, and keeps its choice
// in a function-local static. There is deliberately no override: no CMake
// option, environment variable or flag selects a kernel.
#pragma once

namespace b2b::crypto::cpu {

struct Features {
  /// SHA extensions plus the SSSE3 and SSE4.1 the SHA-256 kernel shuffles
  /// with (CPUID leaf 1 ECX[9,19], leaf 7 EBX[29]).
  bool sha_ni = false;
  /// BMI2 (mulx) and ADX (adcx/adox), for the Montgomery multiply
  /// (CPUID leaf 7 EBX[8,19]).
  bool bmi2_adx = false;
};

/// What this CPU reports, read once, thread-safely. All false on targets
/// other than x86-64.
const Features& features();

}  // namespace b2b::crypto::cpu
