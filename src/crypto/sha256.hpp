// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the secure one-way, collision-resistant hash H the paper assumes
// in §4.2. It is used everywhere evidence is built: state hashes in state
// identifier tuples, member hashes in group identifier tuples, hashes of
// random authenticators, and the hash chain of the evidence log.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace b2b::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Streaming SHA-256. Typical use: Sha256 h; h.update(a); h.update(b);
/// Digest d = h.finish();
///
/// Whole blocks go to one compression kernel per update(): the x86-64
/// SHA extensions when CPUID reports them, else a portable loop. The two
/// are bit-identical; see sha256_kernels.hpp and DESIGN.md §5.
class Sha256 {
 public:
  Sha256();

  /// Absorb more input. May be called any number of times before finish().
  Sha256& update(BytesView data);

  /// Finalize and return the digest. The object must not be reused after
  /// finish() without calling reset().
  Digest finish();

  /// Return to the initial state.
  void reset();

  /// One-shot convenience.
  static Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Digest <-> Bytes helpers (wire format uses plain byte strings).
Bytes digest_bytes(const Digest& digest);
Digest digest_from_bytes(BytesView data);  // throws CodecError if size != 32

}  // namespace b2b::crypto
