// The SHA-256 compression kernels behind Sha256 (DESIGN.md §5).
//
// Internal to crypto/: callers hash through Sha256, which picks a kernel
// once, on first use, from what CPUID reports. This header exists so the
// differential test (and the kernel microbenchmark) can run each kernel
// directly; nothing else should include it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace b2b::crypto::sha256_kernels {

/// Compress `nblocks` consecutive 64-byte blocks starting at `data` into
/// `state`, the eight chaining words H0..H7 of FIPS 180-4 §6.2.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);

/// The portable kernel: plain 32-bit arithmetic, no tables indexed by data.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t nblocks);

/// The x86-64 SHA extensions kernel, or nullptr when this CPU lacks SHA,
/// SSSE3 or SSE4.1 (always nullptr on other targets). CPUID is read once.
CompressFn shani_kernel();

/// The kernel Sha256 uses: shani_kernel() when there is one, else
/// compress_portable. Chosen on the first call, thread-safely.
void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t nblocks);

}  // namespace b2b::crypto::sha256_kernels
