// SHA-256 against FIPS 180-4 / NIST test vectors plus streaming behaviour.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/error.hpp"

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

}  // namespace
}  // namespace b2b::crypto
