// Experiment E12 — cost of the cryptographic primitives of §4.2.
//
// Every coordination run pays: 1 signature at the proposer, 1 signature +
// 1 verification per recipient, hashing of the state and of every
// message, plus TSS stamps per evidence record. These micro-benchmarks
// explain the constant factor measured in E9.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "b2b/federation.hpp"
#include "crypto/bigint.hpp"
#include "crypto/bigint_kernels.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"

using namespace b2b;
using crypto::BigInt;
using crypto::ChaCha20Rng;
using crypto::Sha256;

namespace {

void BM_Sha256(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144)->Arg(1 << 20);

// The portable compression kernel alone, on whole blocks (no padding):
// what Sha256 falls back to on CPUs without the SHA extensions.
void BM_Sha256PortableKernel(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0xab);
  std::array<std::uint32_t, 8> words{};
  for (auto _ : state) {
    crypto::sha256_kernels::compress_portable(words.data(), data.data(),
                                              size / 64);
    benchmark::DoNotOptimize(words);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256PortableKernel)->Arg(64)->Arg(1024)->Arg(16384)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  ChaCha20Rng rng(std::uint64_t{1});
  Bytes out(size);
  for (auto _ : state) {
    rng.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(4096);

void BM_RsaSign(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  const crypto::RsaPrivateKey& key =
      core::Federation::shared_keypair(bits, 0);
  Bytes message = bytes_of("a state transition proposal to sign");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(message));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  const crypto::RsaPrivateKey& key =
      core::Federation::shared_keypair(bits, 0);
  Bytes message = bytes_of("a state transition proposal to verify");
  Bytes signature = key.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.public_key().verify(message, signature));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_ModExp(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  ChaCha20Rng rng(std::uint64_t{7});
  Bytes mod_bytes = rng.bytes(bits / 8);
  mod_bytes.back() |= 1;
  mod_bytes.front() |= 0x80;
  BigInt modulus = BigInt::from_bytes_be(mod_bytes);
  BigInt base = BigInt::from_bytes_be(rng.bytes(bits / 8)) % modulus;
  BigInt exponent = BigInt::from_bytes_be(rng.bytes(bits / 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::mod_exp(base, exponent, modulus));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// One Montgomery product on raw limbs, modulus of range(0) limbs with the
// top bit set. BM_MontMul goes through the dispatching kernel (the
// BMI2+ADX one at 8 limbs where the CPU has it), BM_MontMulPortableKernel
// always runs the portable loops.
struct MontOperands {
  explicit MontOperands(std::size_t len) : n(len), a(len), b(len),
                                           scratch(2 * len + 1) {
    ChaCha20Rng rng(std::uint64_t{11});
    rng.fill(reinterpret_cast<std::uint8_t*>(n.data()), 8 * len);
    rng.fill(reinterpret_cast<std::uint8_t*>(a.data()), 8 * len);
    rng.fill(reinterpret_cast<std::uint8_t*>(b.data()), 8 * len);
    n[0] |= 1;
    n[len - 1] |= std::uint64_t{1} << 63;
    a[len - 1] >>= 1;  // a, b < n
    b[len - 1] >>= 1;
    std::uint64_t inv = n[0];  // Newton: n * inv == 1 mod 2^64
    for (int i = 0; i < 6; ++i) inv *= 2 - n[0] * inv;
    mod = {n.data(), 0 - inv, len};
  }
  std::vector<std::uint64_t> n, a, b, scratch;
  crypto::bigint_kernels::Modulus mod{};
};

void BM_MontMul(benchmark::State& state) {
  MontOperands ops(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::bigint_kernels::mul(ops.a.data(), ops.a.data(), ops.b.data(),
                                ops.mod, ops.scratch.data());
    benchmark::DoNotOptimize(ops.a.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontMul)->Arg(8)->Arg(16)->Unit(benchmark::kNanosecond);

void BM_MontMulPortableKernel(benchmark::State& state) {
  MontOperands ops(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::bigint_kernels::mul_portable(ops.a.data(), ops.a.data(),
                                         ops.b.data(), ops.mod,
                                         ops.scratch.data());
    benchmark::DoNotOptimize(ops.a.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontMulPortableKernel)->Arg(8)->Arg(16)->Unit(benchmark::kNanosecond);

void BM_RsaKeygen(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ChaCha20Rng rng(seed++);
    benchmark::DoNotOptimize(crypto::generate_rsa_keypair(bits, rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_TimestampStamp(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  crypto::TimestampService tss(core::Federation::shared_keypair(bits, 1),
                               [] { return std::uint64_t{42}; });
  Bytes evidence = bytes_of("an evidence record payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tss.stamp(evidence));
  }
}
BENCHMARK(BM_TimestampStamp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
