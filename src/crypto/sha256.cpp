#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace b2b::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return std::rotr(x, n);
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

namespace sha256_kernels {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t nblocks) {
  // The chaining words stay in locals for the whole run of blocks.
  std::uint32_t h0 = state[0], h1 = state[1], h2 = state[2], h3 = state[3];
  std::uint32_t h4 = state[4], h5 = state[5], h6 = state[6], h7 = state[7];
  std::array<std::uint32_t, 64> w{};
  for (; nblocks > 0; --nblocks, data += 64) {
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h0, b = h1, c = h2, d = h3;
    std::uint32_t e = h4, f = h5, g = h6, h = h7;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    h0 += a;
    h1 += b;
    h2 += c;
    h3 += d;
    h4 += e;
    h5 += f;
    h6 += g;
    h7 += h;
  }
  state[0] = h0;
  state[1] = h1;
  state[2] = h2;
  state[3] = h3;
  state[4] = h4;
  state[5] = h5;
  state[6] = h6;
  state[7] = h7;
}

#if defined(__x86_64__)

namespace {

// The same rounds on the SHA extensions. The state lives in two vectors,
// ABEF and CDGH, the layout sha256rnds2 wants; each rnds2 runs two rounds,
// and sha256msg1/msg2 extend the message schedule four words at a time.
// Group g of four rounds uses schedule words W[4g..4g+3], kept in msg[g%4].
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  // Message words are big-endian: byte-swap each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);         // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i msg[4] = {};
    // Fully unrolled, every msg[] index is a constant and msg[] stays in
    // registers.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = msg[g % 4];
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      }
      const __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        // Finish W[4g+4..4g+7]: add W[t-7] and apply sigma1.
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g <= 12) {
        // Start W[4g+12..4g+15]: W[t-16] + sigma0(W[t-15]).
        __m128i& prev = msg[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, w);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

}  // namespace

CompressFn shani_kernel() {
  return cpu::features().sha_ni ? compress_shani : nullptr;
}

#else

CompressFn shani_kernel() { return nullptr; }

#endif

void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t nblocks) {
  static const CompressFn kernel =
      shani_kernel() != nullptr ? shani_kernel() : compress_portable;
  kernel(state, data, nblocks);
}

}  // namespace sha256_kernels

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(BytesView data) {
  // An empty view may carry a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (data.empty()) return *this;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < buffer_.size()) return *this;
    sha256_kernels::compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block goes to the kernel in one call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    sha256_kernels::compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  std::uint64_t bit_len = total_len_ * 8;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] =
        static_cast<std::uint8_t>((bit_len >> (56 - 8 * i)) & 0xff);
  }
  update(BytesView(pad.data(), pad_len + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(BytesView data) { return Sha256().update(data).finish(); }

Bytes digest_bytes(const Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

Digest digest_from_bytes(BytesView data) {
  if (data.size() != 32) {
    throw CodecError("digest_from_bytes: expected 32 bytes, got " +
                     std::to_string(data.size()));
  }
  Digest out;
  std::copy(data.begin(), data.end(), out.begin());
  return out;
}

}  // namespace b2b::crypto
