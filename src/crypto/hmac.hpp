// HMAC-SHA256 (RFC 2104 / FIPS 198-1) and an HKDF-style KDF (RFC 5869),
// both built on the from-scratch Sha256.
//
// These are the symmetric primitives of wire v3 (DESIGN.md §11): at the
// hello exchange each connection derives fresh per-direction keys from
// RSA-transported ephemeral halves, expands them with HKDF, and MACs
// every data/ack frame so a live-incarnation forgery — rewriting a seq
// or payload, forging an ack — dies at the transport as
// `frames_rejected_auth` instead of masquerading as the honest sender.
// MAC comparison must go through `b2b::constant_time_equal` (bytes.hpp)
// so a byte-by-byte early exit never leaks how much of a guess matched.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace b2b::crypto {

/// Streaming HMAC-SHA256. Keys longer than the 64-byte SHA-256 block are
/// pre-hashed per RFC 2104. Typical use mirrors Sha256:
///   HmacSha256 mac(key); mac.update(a); mac.update(b); Digest t = mac.finish();
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  HmacSha256& update(BytesView data);

  /// Finalize and return the 32-byte tag. Call reset() before reuse.
  Digest finish();

  /// Return to the post-key-schedule initial state (same key).
  void reset();

  /// One-shot convenience.
  static Digest mac(BytesView key, BytesView data);

 private:
  // Midstates after absorbing key^ipad and key^opad, computed once at key
  // setup: reset() and finish() copy them instead of compressing a pad
  // block again.
  Sha256 inner_start_;
  Sha256 outer_start_;
  Sha256 inner_;
};

/// HKDF-Extract: PRK = HMAC(salt, ikm). An empty salt means a zero-filled
/// hash-length salt, per RFC 5869.
Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: OKM = first `length` bytes of T(1) || T(2) || ... where
/// T(i) = HMAC(prk, T(i-1) || info || i). `length` <= 255*32.
Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length);

}  // namespace b2b::crypto
