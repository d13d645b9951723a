#include "crypto/hmac.hpp"

#include <array>
#include <stdexcept>

namespace b2b::crypto {

namespace {
constexpr std::size_t kBlockLen = 64;  // SHA-256 block size
}  // namespace

HmacSha256::HmacSha256(BytesView key) {
  std::array<std::uint8_t, kBlockLen> padded{};
  if (key.size() > kBlockLen) {
    Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), padded.begin());
  } else {
    std::copy(key.begin(), key.end(), padded.begin());
  }
  std::array<std::uint8_t, kBlockLen> pad{};
  for (std::size_t i = 0; i < kBlockLen; ++i) {
    pad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36);
  }
  inner_start_.update(BytesView{pad.data(), pad.size()});
  for (std::size_t i = 0; i < kBlockLen; ++i) {
    pad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5c);
  }
  outer_start_.update(BytesView{pad.data(), pad.size()});
  inner_ = inner_start_;
}

HmacSha256& HmacSha256::update(BytesView data) {
  inner_.update(data);
  return *this;
}

Digest HmacSha256::finish() {
  Digest inner_digest = inner_.finish();
  Sha256 outer = outer_start_;
  outer.update(BytesView{inner_digest.data(), inner_digest.size()});
  return outer.finish();
}

void HmacSha256::reset() { inner_ = inner_start_; }

Digest HmacSha256::mac(BytesView key, BytesView data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finish();
}

Digest hkdf_extract(BytesView salt, BytesView ikm) {
  if (salt.empty()) {
    std::array<std::uint8_t, 32> zero_salt{};
    return HmacSha256::mac(BytesView{zero_salt.data(), zero_salt.size()},
                           ikm);
  }
  return HmacSha256::mac(salt, ikm);
}

Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length) {
  if (length > 255 * 32) {
    throw std::invalid_argument("hkdf_expand: length > 255*HashLen");
  }
  Bytes okm;
  okm.reserve(length);
  Digest block{};
  std::size_t block_len = 0;  // T(0) is empty
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    HmacSha256 h(BytesView{prk.data(), prk.size()});
    h.update(BytesView{block.data(), block_len});
    h.update(info);
    h.update(BytesView{&counter, 1});
    block = h.finish();
    block_len = block.size();
    std::size_t take = std::min(length - okm.size(), block_len);
    okm.insert(okm.end(), block.begin(), block.begin() + take);
    ++counter;
  }
  return okm;
}

}  // namespace b2b::crypto
