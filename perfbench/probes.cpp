#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "b2b/messages.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "store/journal.hpp"

namespace perfbench {

namespace core = b2b::core;

namespace {

/// Median wall time of `reps` calls of `fn`, in microseconds.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    fn(i);
    samples.push_back((now_ns() - start) / 1e3);
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
  return samples[reps / 2];
}

/// The largest proposal message the workload sends: the stored encoding
/// of the last run's propose (or batch-propose) at its proposer.
std::pair<std::string, Bytes> largest_proposal(Bench& bench) {
  // Object 0 and every deal are proposed by org0.
  const core::Coordinator& proposer = bench.fed().coordinator(bench.names()[0]);
  std::string label = bench.last_labels().front();
  if (bench.workload().deal) {
    auto decision = proposer.deals().decision_of(label);
    if (!decision || decision->decision.legs.empty()) return {};
    label = decision->decision.legs.front().proposed.label();
  }
  const auto& messages = proposer.messages();
  if (!messages.has_run(label)) return {};
  for (const auto& m : messages.run(label)) {
    if (m.direction == "sent" &&
        (m.kind == "propose" || m.kind == "batch-propose")) {
      return {m.kind, m.payload};
    }
  }
  return {};
}

}  // namespace

std::vector<ProbeValue> run_probes(Bench& bench, std::uint64_t seed,
                                   const std::string& workdir,
                                   std::vector<std::string>& problems) {
  std::vector<ProbeValue> out;
  core::Federation& fed = bench.fed();
  const b2b::crypto::RsaPrivateKey& key = fed.keypair(bench.names()[0]);
  const Bytes message = bench.sample_state(seed);

  // --- crypto ---------------------------------------------------------------
  Bytes signature;
  out.push_back({"crypto.rsa_sign_us",
                 median_us(31, [&](int) { signature = key.sign(message); }),
                 "us"});
  bool verified = true;
  out.push_back({"crypto.rsa_verify_us", median_us(101, [&](int) {
                   verified &= key.public_key().verify(message, signature);
                 }),
                 "us"});
  out.push_back({"crypto.tss_stamp_us", median_us(31, [&](int) {
                   b2b::crypto::Timestamp ts = fed.tss()->stamp(message);
                   verified &= !ts.signature.empty();
                 }),
                 "us"});

  // 16 signatures, spread over the three organisations' keys as the
  // responses of a batch are.
  std::vector<b2b::crypto::BatchVerifyItem> items;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto& signer = fed.keypair(bench.names()[i % bench.names().size()]);
    b2b::crypto::BatchVerifyItem item;
    item.key = &signer.public_key();
    Bytes m = bench.sample_state(seed + i);
    item.digest = b2b::crypto::Sha256::hash(m);
    item.signature = signer.sign_digest(item.digest);
    items.push_back(std::move(item));
  }
  b2b::crypto::ChaCha20Rng rng(seed);
  out.push_back({"crypto.batch_verify_us", median_us(9, [&](int) {
                   verified &= b2b::crypto::batch_verify(items, rng).all_ok;
                 }),
                 "us"});

  const Bytes mib = [&] {
    Bytes b;
    while (b.size() < (1u << 20)) {
      const Bytes s = bench.sample_state(seed + b.size());
      b.insert(b.end(), s.begin(), s.end());
    }
    b.resize(1u << 20);
    return b;
  }();
  b2b::crypto::Digest sink{};
  const double sha_us = median_us(9, [&](int i) {
    sink = b2b::crypto::Sha256::hash(mib);
    sink[0] ^= static_cast<std::uint8_t>(i);
  });
  out.push_back({"crypto.sha256_mib_per_s", 1e6 / sha_us, "MiB/s"});

  const Bytes mac_key(mib.begin(), mib.begin() + 32);
  const Bytes frame(mib.begin(), mib.begin() + 1024);
  constexpr int kFrames = 256;
  const double hmac_us = median_us(9, [&](int) {
    for (int f = 0; f < kFrames; ++f) {
      sink = b2b::crypto::HmacSha256::mac(mac_key, frame);
    }
  });
  out.push_back({"crypto.hmac_us_per_frame", hmac_us / kFrames, "us"});

  // --- wire -----------------------------------------------------------------
  const auto [kind, encoded] = largest_proposal(bench);
  double encode_us = 0, decode_us = 0;
  if (kind == "propose") {
    const core::ProposeMsg msg = core::ProposeMsg::decode(encoded);
    encode_us = median_us(101, [&](int) { verified &= msg.encode() == encoded; });
    decode_us = median_us(101, [&](int) {
      verified &= core::ProposeMsg::decode(encoded).payload.size() > 0;
    });
  } else if (kind == "batch-propose") {
    const core::BatchProposeMsg msg = core::BatchProposeMsg::decode(encoded);
    encode_us = median_us(31, [&](int) { verified &= msg.encode() == encoded; });
    decode_us = median_us(31, [&](int) {
      verified &= !core::BatchProposeMsg::decode(encoded).items.empty();
    });
  } else {
    verified = false;
  }
  out.push_back({"wire.encode_us", encode_us, "us"});
  out.push_back({"wire.decode_us", decode_us, "us"});

  // --- store ----------------------------------------------------------------
  const std::filesystem::path dir =
      std::filesystem::path(workdir) / "probe-journal";
  std::filesystem::remove_all(dir);
  {
    b2b::store::Journal::Options options;
    options.fsync = true;
    b2b::store::Journal journal(dir.string(), options);
    out.push_back({"store.journal_append_us",
                   median_us(255, [&](int) { journal.append(1, frame); }),
                   "us"});
    // Each barrier covers one fresh 1 KiB record; only sync() is timed.
    std::vector<double> syncs;
    for (int i = 0; i < 15; ++i) {
      journal.append(1, frame);
      const std::int64_t start = now_ns();
      journal.sync();
      syncs.push_back((now_ns() - start) / 1e3);
    }
    std::sort(syncs.begin(), syncs.end());
    out.push_back({"store.journal_sync_us", syncs[syncs.size() / 2], "us"});
  }
  std::filesystem::remove_all(dir);

  if (!verified) problems.push_back("a layer probe computed a wrong result");
  return out;
}

}  // namespace perfbench
