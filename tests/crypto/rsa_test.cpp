// RSA signatures: correctness, tamper-resistance, key serialization, and
// the prime-generation machinery.
#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "tests/support/test_keys.hpp"

namespace b2b::crypto {
namespace {

TEST(PrimeTest, KnownSmallPrimesAccepted) {
  ChaCha20Rng rng(std::uint64_t{1});
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 97ULL, 251ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(PrimeTest, KnownCompositesRejected) {
  ChaCha20Rng rng(std::uint64_t{2});
  for (std::uint64_t c : {1ULL, 4ULL, 9ULL, 15ULL, 91ULL, 561ULL, 8911ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, LargeKnownPrimeAccepted) {
  // 2^127 - 1 is a Mersenne prime.
  ChaCha20Rng rng(std::uint64_t{3});
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime((BigInt(1) << 128) - BigInt(1), rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitLengthAndIsOdd) {
  ChaCha20Rng rng(std::uint64_t{4});
  BigInt p = generate_prime(256, rng);
  EXPECT_EQ(p.bit_length(), 256u);
  EXPECT_TRUE(p.is_odd());
  // Top two bits set by construction.
  EXPECT_TRUE(p.bit(255));
  EXPECT_TRUE(p.bit(254));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("state transition proposal");
  Bytes signature = key.sign(message);
  EXPECT_EQ(signature.size(), key.public_key().modulus_bytes());
  EXPECT_TRUE(key.public_key().verify(message, signature));
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes signature = key.sign(bytes_of("original"));
  EXPECT_FALSE(key.public_key().verify(bytes_of("tampered"), signature));
}

TEST(RsaTest, VerifyRejectsTamperedSignature) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("message");
  Bytes signature = key.sign(message);
  for (std::size_t i = 0; i < signature.size(); i += 13) {
    Bytes bad = signature;
    bad[i] ^= 0x01;
    EXPECT_FALSE(key.public_key().verify(message, bad)) << "flip at " << i;
  }
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  Bytes message = bytes_of("message");
  EXPECT_FALSE(key_b.public_key().verify(message, key_a.sign(message)));
}

TEST(RsaTest, VerifyRejectsWrongLengthSignature) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("message");
  Bytes signature = key.sign(message);
  signature.pop_back();
  EXPECT_FALSE(key.public_key().verify(message, signature));
  EXPECT_FALSE(key.public_key().verify(message, Bytes{}));
}

TEST(RsaTest, SignatureIsDeterministic) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("same input");
  EXPECT_EQ(key.sign(message), key.sign(message));
}

TEST(RsaTest, SignDigestMatchesSignMessage) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("digest equivalence");
  EXPECT_EQ(key.sign(message), key.sign_digest(Sha256::hash(message)));
  EXPECT_TRUE(key.public_key().verify_digest(Sha256::hash(message),
                                             key.sign(message)));
}

TEST(RsaTest, PublicKeyEncodeDecodeRoundTrip) {
  const RsaPublicKey& pub = test::shared_test_key(0).public_key();
  RsaPublicKey decoded = RsaPublicKey::decode(pub.encode());
  EXPECT_EQ(decoded, pub);
  Bytes message = bytes_of("serialization");
  EXPECT_TRUE(decoded.verify(message, test::shared_test_key(0).sign(message)));
}

/// The public-key wire form, framed by hand so a test can encode keys the
/// constructor would never be asked to build.
Bytes frame_key(const Bytes& n, const Bytes& e) {
  Bytes out;
  for (const Bytes* field : {&n, &e}) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(field->size() >> (8 * i)));
    }
    out.insert(out.end(), field->begin(), field->end());
  }
  return out;
}

TEST(RsaTest, PublicKeyDecodeRejectsGarbage) {
  EXPECT_THROW(RsaPublicKey::decode(Bytes{1, 2, 3}), CodecError);
  Bytes encoded = test::shared_test_key(0).public_key().encode();
  encoded.push_back(0);  // trailing byte
  EXPECT_THROW(RsaPublicKey::decode(encoded), CodecError);
  encoded.pop_back();
  encoded.pop_back();  // truncation
  EXPECT_THROW(RsaPublicKey::decode(encoded), CodecError);

  const RsaPublicKey& pub = test::shared_test_key(0).public_key();
  const Bytes n = pub.n().to_bytes_be();
  const Bytes e = pub.e().to_bytes_be();
  ASSERT_NO_THROW(RsaPublicKey::decode(frame_key(n, e)));

  // An even modulus.
  Bytes even_n = n;
  even_n.back() &= 0xfe;
  EXPECT_THROW(RsaPublicKey::decode(frame_key(even_n, e)), CodecError);

  // A modulus over 8192 bits: 8193 bits, and a hostile 4 MiB odd one that
  // must be refused before any division work on it.
  Bytes n_8193(1025, 0xff);
  n_8193.front() = 0x01;
  EXPECT_THROW(RsaPublicKey::decode(frame_key(n_8193, e)), CodecError);
  Bytes huge_n(4 << 20, 0xa5);
  EXPECT_THROW(RsaPublicKey::decode(frame_key(huge_n, e)), CodecError);

  // e < 3, and e >= n.
  EXPECT_THROW(RsaPublicKey::decode(frame_key(n, Bytes{0x02})), CodecError);
  EXPECT_THROW(RsaPublicKey::decode(frame_key(n, Bytes{})), CodecError);
  EXPECT_THROW(RsaPublicKey::decode(frame_key(n, n)), CodecError);
  Bytes above_n = n;
  above_n.insert(above_n.begin(), 0x01);
  EXPECT_THROW(RsaPublicKey::decode(frame_key(n, above_n)), CodecError);
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  // The wire v3 hello transports a 32-byte ephemeral key half under the
  // peer's public key (EME-PKCS1-v1_5).
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{7});
  Bytes half(32, 0x00);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes ciphertext = key.public_key().encrypt(half, rng);
  EXPECT_EQ(ciphertext.size(), key.public_key().modulus_bytes());
  auto plain = key.decrypt(ciphertext);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, half);
}

TEST(RsaTest, EncryptionIsRandomized) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{8});
  Bytes half(32, 0x42);
  EXPECT_NE(key.public_key().encrypt(half, rng),
            key.public_key().encrypt(half, rng));
}

TEST(RsaTest, DecryptRejectsTamperedCiphertext) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{9});
  Bytes ciphertext = key.public_key().encrypt(Bytes(32, 0x17), rng);
  for (std::size_t i = 0; i < ciphertext.size(); i += 11) {
    Bytes bad = ciphertext;
    bad[i] ^= 0x01;
    auto plain = key.decrypt(bad);
    if (plain.has_value()) {
      // Padding survived by chance: the recovered bytes must still differ.
      EXPECT_NE(*plain, Bytes(32, 0x17)) << "flip at " << i;
    }
  }
  EXPECT_FALSE(key.decrypt(Bytes{}).has_value());
  EXPECT_FALSE(key.decrypt(Bytes(7, 0xee)).has_value());
}

TEST(RsaTest, DecryptWithWrongKeyFails) {
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  ChaCha20Rng rng(std::uint64_t{10});
  Bytes ciphertext = key_a.public_key().encrypt(Bytes(32, 0x2a), rng);
  auto plain = key_b.decrypt(ciphertext);
  if (plain.has_value()) {
    EXPECT_NE(*plain, Bytes(32, 0x2a));
  }
}

// --- SignatureCache: the verified-signature cache behind the batch /
// --- pipelining work (DESIGN.md §13).

TEST(SignatureCacheTest, HitAfterVerifyMissBefore) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("cached message");
  Bytes signature = key.sign(message);
  Digest digest = Sha256::hash(message);

  SignatureCache cache(16);
  EXPECT_FALSE(cache.contains(key.public_key(), digest, signature));
  EXPECT_TRUE(cache.verify(key.public_key(), message, signature));
  EXPECT_TRUE(cache.contains(key.public_key(), digest, signature));
  // The second verify is answered from the cache.
  auto stats = cache.stats();
  EXPECT_TRUE(cache.verify(key.public_key(), message, signature));
  EXPECT_EQ(cache.stats().hits, stats.hits + 1);
}

TEST(SignatureCacheTest, NegativeResultsAreNeverCached) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("forged");
  Bytes bad = key.sign(message);
  bad[0] ^= 0x01;
  SignatureCache cache(16);
  EXPECT_FALSE(cache.verify(key.public_key(), message, bad));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(key.public_key(), Sha256::hash(message), bad));
}

TEST(SignatureCacheTest, EvictionStaysWithinCapacity) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  SignatureCache cache(4);
  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (int i = 0; i < 10; ++i) {
    messages.push_back(bytes_of("evict-" + std::to_string(i)));
    signatures.push_back(key.sign(messages.back()));
    ASSERT_TRUE(cache.verify(key.public_key(), messages.back(),
                             signatures.back()));
    EXPECT_LE(cache.size(), 4u);
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 10u);
  EXPECT_EQ(stats.evictions, 6u);
  // FIFO: the oldest entries are gone, the newest are resident.
  EXPECT_FALSE(cache.contains(key.public_key(), Sha256::hash(messages[0]),
                              signatures[0]));
  EXPECT_TRUE(cache.contains(key.public_key(), Sha256::hash(messages[9]),
                             signatures[9]));
  // An evicted signature still verifies (and is re-admitted).
  EXPECT_TRUE(cache.verify(key.public_key(), messages[0], signatures[0]));
}

TEST(SignatureCacheTest, CannotBePoisonedByPrefixCollision) {
  // The cache key covers the FULL (public key, digest, signature) triple.
  // A frame that matches a cached entry on a prefix of that tuple — same
  // digest under a different key, same key+digest with different
  // signature bytes, or a truncated signature — must MISS, not hit.
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  Bytes message = bytes_of("poison target");
  Digest digest = Sha256::hash(message);
  Bytes signature = key_a.sign(message);

  SignatureCache cache(16);
  ASSERT_TRUE(cache.verify(key_a.public_key(), message, signature));

  // Same digest, different signer: the attacker has no signature from
  // key_b but hopes the cached key_a entry answers for it.
  EXPECT_FALSE(cache.contains(key_b.public_key(), digest, signature));
  EXPECT_FALSE(cache.verify(key_b.public_key(), message, signature));

  // Same signer+digest, mutated signature bytes.
  Bytes mutated = signature;
  mutated.back() ^= 0x80;
  EXPECT_FALSE(cache.contains(key_a.public_key(), digest, mutated));
  EXPECT_FALSE(cache.verify(key_a.public_key(), message, mutated));

  // Truncated signature sharing the cached entry's byte prefix.
  Bytes truncated(signature.begin(), signature.end() - 1);
  EXPECT_FALSE(cache.contains(key_a.public_key(), digest, truncated));
  EXPECT_FALSE(cache.verify(key_a.public_key(), message, truncated));

  // And the original triple still hits.
  EXPECT_TRUE(cache.contains(key_a.public_key(), digest, signature));
}

// --- batch_verify: many signatures at once, agreeing with one-by-one
// --- verification and localising corrupted members.

TEST(BatchVerifyTest, AgreesWithOneByOneOnAThousandMessages) {
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  ChaCha20Rng data_rng(std::uint64_t{41});
  ChaCha20Rng batch_rng(std::uint64_t{42});

  std::vector<BatchVerifyItem> items;
  std::vector<bool> expected;
  items.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const RsaPrivateKey& key = (i % 3 == 0) ? key_b : key_a;
    Bytes message = data_rng.bytes(16 + (i % 48));
    BatchVerifyItem item;
    item.key = &key.public_key();
    item.digest = Sha256::hash(message);
    item.signature = key.sign_digest(item.digest);
    bool good = true;
    if (i % 97 == 13) {  // corrupt a scattering of members
      item.signature[i % item.signature.size()] ^= 0x01;
      good = false;
    }
    items.push_back(std::move(item));
    expected.push_back(good);
  }

  BatchVerifyResult result = batch_verify(items, batch_rng);
  ASSERT_EQ(result.ok.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(result.ok[i],
              items[i].key->verify_digest(items[i].digest,
                                          items[i].signature))
        << "index " << i;
    EXPECT_EQ(result.ok[i], expected[i]) << "index " << i;
  }
  EXPECT_FALSE(result.all_ok);
  // The batch localises exactly the corrupted indices.
  std::vector<std::size_t> expected_bad;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!expected[i]) expected_bad.push_back(i);
  }
  EXPECT_EQ(result.bad, expected_bad);
}

TEST(BatchVerifyTest, AllGoodBatchScreensWholeGroups) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng batch_rng(std::uint64_t{43});
  std::vector<BatchVerifyItem> items;
  for (int i = 0; i < 8; ++i) {
    Bytes message = bytes_of("screen-" + std::to_string(i));
    BatchVerifyItem item;
    item.key = &key.public_key();
    item.digest = Sha256::hash(message);
    item.signature = key.sign_digest(item.digest);
    items.push_back(std::move(item));
  }
  BatchVerifyResult result = batch_verify(items, batch_rng);
  EXPECT_TRUE(result.all_ok);
  EXPECT_TRUE(result.bad.empty());
  EXPECT_EQ(result.screened_groups, 1u);
}

TEST(BatchVerifyTest, WrongKeyRegression) {
  // A signature made under key A presented as key B's must fail in the
  // batch exactly as it does one-by-one, and must not poison its group.
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  ChaCha20Rng batch_rng(std::uint64_t{44});
  std::vector<BatchVerifyItem> items;
  for (int i = 0; i < 4; ++i) {
    Bytes message = bytes_of("wrong-key-" + std::to_string(i));
    BatchVerifyItem item;
    item.key = &key_b.public_key();
    item.digest = Sha256::hash(message);
    // Item 2 carries key A's signature, claimed to be from key B.
    item.signature = (i == 2) ? key_a.sign_digest(item.digest)
                              : key_b.sign_digest(item.digest);
    items.push_back(std::move(item));
  }
  BatchVerifyResult result = batch_verify(items, batch_rng);
  EXPECT_FALSE(result.all_ok);
  ASSERT_EQ(result.bad.size(), 1u);
  EXPECT_EQ(result.bad[0], 2u);
  EXPECT_TRUE(result.ok[0]);
  EXPECT_TRUE(result.ok[1]);
  EXPECT_TRUE(result.ok[3]);
}

TEST(BatchVerifyTest, PopulatesAndConsultsCache) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng batch_rng(std::uint64_t{45});
  SignatureCache cache(64);
  std::vector<BatchVerifyItem> items;
  for (int i = 0; i < 6; ++i) {
    Bytes message = bytes_of("cache-batch-" + std::to_string(i));
    BatchVerifyItem item;
    item.key = &key.public_key();
    item.digest = Sha256::hash(message);
    item.signature = key.sign_digest(item.digest);
    items.push_back(std::move(item));
  }
  BatchVerifyResult first = batch_verify(items, batch_rng, &cache);
  EXPECT_TRUE(first.all_ok);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(cache.size(), 6u);
  // A retransmission of the same batch never re-enters RSA.
  BatchVerifyResult second = batch_verify(items, batch_rng, &cache);
  EXPECT_TRUE(second.all_ok);
  EXPECT_EQ(second.cache_hits, 6u);
  EXPECT_EQ(second.screened_groups, 0u);
}

TEST(RsaTest, ConcurrentSigningWithOneSharedKey) {
  // One key (and so one set of cached Montgomery contexts) signs from four
  // threads at once; every signature must verify and equal the one a lone
  // signer produces (PKCS#1 v1.5 signing is deterministic).
  const RsaPrivateKey& key = test::shared_test_key(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<Bytes>> signatures(kThreads);
  std::vector<std::thread> signers;
  for (int t = 0; t < kThreads; ++t) {
    signers.emplace_back([&key, &signatures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        signatures[t].push_back(
            key.sign(bytes_of("concurrent " + std::to_string(t * 1000 + i))));
      }
    });
  }
  for (std::thread& signer : signers) signer.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(signatures[t].size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      Bytes message = bytes_of("concurrent " + std::to_string(t * 1000 + i));
      EXPECT_TRUE(key.public_key().verify(message, signatures[t][i]))
          << "thread " << t << " message " << i;
      EXPECT_EQ(signatures[t][i], key.sign(message));
    }
  }
}

TEST(RsaTest, KeypairGenerationRejectsTinyKeys) {
  ChaCha20Rng rng(std::uint64_t{5});
  EXPECT_THROW(generate_rsa_keypair(256, rng), std::invalid_argument);
}

TEST(RsaTest, FreshKeypairHasRequestedModulusSize) {
  ChaCha20Rng rng(std::uint64_t{99});
  RsaPrivateKey key = generate_rsa_keypair(512, rng);
  EXPECT_EQ(key.public_key().n().bit_length(), 512u);
  EXPECT_EQ(key.public_key().e(), BigInt(65537));
  Bytes message = bytes_of("fresh key");
  EXPECT_TRUE(key.public_key().verify(message, key.sign(message)));
}

}  // namespace
}  // namespace b2b::crypto
