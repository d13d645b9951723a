// SHA-256 against FIPS 180-4 / NIST test vectors plus streaming behaviour,
// and a differential battery over the compression kernels.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256_kernels.hpp"

namespace b2b::crypto {
namespace {

std::string hash_hex(std::string_view input) {
  return to_hex(digest_bytes(Sha256::hash(bytes_of(input))));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, ExactlyOneBlock) {
  // 64 bytes: padding spills into a second block.
  std::string input(64, 'a');
  EXPECT_EQ(hash_hex(input),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split at " << split;
  }
}

TEST(Sha256Test, EmptyUpdatesAreNoOps) {
  // A default-constructed view has a null data(); feeding it must not
  // touch memory, whether or not a partial block is buffered.
  Bytes data = bytes_of("abc");
  Sha256 fresh;
  fresh.update(BytesView{});
  fresh.update(data);
  EXPECT_EQ(fresh.finish(), Sha256::hash(data));

  Sha256 partial;
  partial.update(data);
  partial.update(BytesView{});
  partial.update(BytesView{});
  EXPECT_EQ(partial.finish(), Sha256::hash(data));

  Sha256 empty;
  empty.update(BytesView{});
  EXPECT_EQ(empty.finish(), Sha256::hash(BytesView{}));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::hash(bytes_of("a")), Sha256::hash(bytes_of("b")));
  EXPECT_NE(Sha256::hash(Bytes{}), Sha256::hash(Bytes{0x00}));
}

TEST(Sha256Test, DigestBytesRoundTrip) {
  Digest d = Sha256::hash(bytes_of("roundtrip"));
  EXPECT_EQ(digest_from_bytes(digest_bytes(d)), d);
}

TEST(Sha256Test, DigestFromBytesWrongSizeThrows) {
  EXPECT_THROW(digest_from_bytes(Bytes(31)), CodecError);
  EXPECT_THROW(digest_from_bytes(Bytes(33)), CodecError);
}

// --- Differential battery: the portable and SHA-NI compression kernels
// --- against each other and against the dispatching Sha256, over every
// --- length up to 1 KiB plus 16 KiB and 1 MiB, random streaming splits and
// --- updates that straddle the buffered tail. CI sweeps it via
// --- B2B_SHA256_SEED.

using sha256_kernels::CompressFn;

std::uint64_t sha256_seed() {
  const char* seed = std::getenv("B2B_SHA256_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 1;
}

/// The SHA-NI kernel, or a skip with the reason.
#define REQUIRE_SHANI(kernel)                                        \
  const CompressFn kernel = sha256_kernels::shani_kernel();          \
  if ((kernel) == nullptr) {                                         \
    GTEST_SKIP() << "CPU lacks the SHA extensions (CPUID 7.EBX[29], " \
                    "SSSE3, SSE4.1): no SHA-NI kernel to compare";   \
  }

/// Hash `data` with one kernel and no Sha256 buffering: every whole block
/// in one call, then the FIPS 180-4 padding in one more.
Digest hash_with(CompressFn kernel, BytesView data) {
  std::array<std::uint32_t, 8> state = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = data.size() / 64;
  if (whole > 0) kernel(state.data(), data.data(), whole);
  std::array<std::uint8_t, 128> tail{};
  const std::size_t rest = data.size() - whole * 64;
  if (rest > 0) std::copy(data.begin() + whole * 64, data.end(), tail.begin());
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  kernel(state.data(), tail.data(), tail_blocks);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

/// Random, all-zero and all-0xff messages of every tested length.
std::vector<Bytes> battery_messages(ChaCha20Rng& rng) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(16 * 1024);
  lengths.push_back(1024 * 1024);
  std::vector<Bytes> out;
  for (std::size_t n : lengths) {
    out.push_back(rng.bytes(n));
    out.push_back(Bytes(n, 0x00));
    out.push_back(Bytes(n, 0xff));
  }
  return out;
}

TEST(Sha256KernelDifferential, PortableMatchesDispatchOnEveryLength) {
  ChaCha20Rng rng(sha256_seed());
  for (const Bytes& msg : battery_messages(rng)) {
    ASSERT_EQ(hash_with(sha256_kernels::compress_portable, msg),
              Sha256::hash(msg))
        << "length " << msg.size();
  }
}

TEST(Sha256KernelDifferential, ShaNiMatchesPortableOnEveryLength) {
  REQUIRE_SHANI(shani);
  ChaCha20Rng rng(sha256_seed());
  for (const Bytes& msg : battery_messages(rng)) {
    ASSERT_EQ(hash_with(shani, msg),
              hash_with(sha256_kernels::compress_portable, msg))
        << "length " << msg.size();
  }
}

TEST(Sha256KernelDifferential, ShaNiMatchesPortableFromRandomStates) {
  // Raw compression from arbitrary chaining values, so a lane mix-up in
  // the ABEF/CDGH packing cannot hide behind the fixed initial state.
  REQUIRE_SHANI(shani);
  ChaCha20Rng rng(sha256_seed() * 1000 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::uint32_t, 8> start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t nblocks = 1 + rng.next_below(17);
    Bytes data = trial % 3 == 0   ? Bytes(nblocks * 64, 0x00)
                 : trial % 3 == 1 ? Bytes(nblocks * 64, 0xff)
                                  : rng.bytes(nblocks * 64);
    auto portable = start;
    auto accelerated = start;
    sha256_kernels::compress_portable(portable.data(), data.data(), nblocks);
    shani(accelerated.data(), data.data(), nblocks);
    ASSERT_EQ(accelerated, portable) << "trial " << trial;
  }
}

TEST(Sha256KernelDifferential, RandomStreamingSplitsMatchOneShot) {
  ChaCha20Rng rng(sha256_seed() * 1000 + 2);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len =
        trial < 10 ? 16 * 1024 + rng.next_below(64) : rng.next_below(2048);
    const Bytes msg = rng.bytes(len);
    Sha256 h;
    std::size_t offset = 0;
    while (offset < len) {
      // Mostly short pieces, sometimes several blocks at once.
      const std::size_t cap = rng.next_below(4) == 0 ? 600 : 70;
      const std::size_t take =
          std::min<std::size_t>(len - offset, rng.next_below(cap + 1));
      h.update(BytesView(msg.data() + offset, take));
      offset += take;
    }
    ASSERT_EQ(h.finish(), hash_with(sha256_kernels::compress_portable, msg))
        << "trial " << trial << ", length " << len;
  }
}

TEST(Sha256KernelDifferential, MultiBlockUpdatesStraddleBufferedTail) {
  // A partial block is buffered, then one update carries enough to fill
  // it and hand several more whole blocks to the kernel, plus a new tail.
  ChaCha20Rng rng(sha256_seed() * 1000 + 3);
  for (std::size_t head = 1; head < 64; ++head) {
    for (std::size_t blocks : {1u, 2u, 5u, 17u}) {
      for (std::size_t extra : {0u, 1u, 63u}) {
        const Bytes msg = rng.bytes(head + blocks * 64 + extra);
        Sha256 h;
        h.update(BytesView(msg.data(), head));
        h.update(BytesView(msg.data() + head, msg.size() - head));
        ASSERT_EQ(h.finish(),
                  hash_with(sha256_kernels::compress_portable, msg))
            << "head " << head << ", blocks " << blocks << ", extra "
            << extra;
      }
    }
  }
}

}  // namespace
}  // namespace b2b::crypto
