// ReactorTransport: the §4.2 delivery contract (eventual once-only
// delivery) over non-blocking sockets on one epoll loop: the wire
// protocol and its byte-stream failure modes (torn frames, bad CRCs,
// RSTs, incarnations, hostile lengths, the wire-v3 auth must-fail
// games), plus the fan-in shapes only an event loop meets: hundreds of
// simultaneous dials into one acceptor, write backpressure (kernel
// buffer full → EPOLLOUT resume), restart churn, and fd exhaustion at
// accept.
#include "net/reactor_runtime.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "net/frame.hpp"
#include "net/wire_auth.hpp"
#include "store/crc32.hpp"
#include "tests/support/test_keys.hpp"
#include "wire/codec.hpp"

namespace b2b::net {
namespace {

using namespace std::chrono_literals;

/// Spin until `predicate` holds or `timeout` elapses; true on success.
bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds timeout = 10'000ms) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

/// A thread-safe payload sink (the handler runs on a pool worker).
struct Sink {
  mutable std::mutex mutex;
  std::vector<Bytes> received;

  Transport::Handler handler() {
    return [this](const PartyId&, const Bytes& payload) {
      std::lock_guard<std::mutex> lock(mutex);
      received.push_back(payload);
    };
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mutex);
    return received.size();
  }

  std::multiset<Bytes> contents() const {
    std::lock_guard<std::mutex> lock(mutex);
    return {received.begin(), received.end()};
  }
};

/// Transports sharing one loop, one pool, one directory on localhost.
struct Fixture {
  std::shared_ptr<PeerDirectory> directory =
      std::make_shared<PeerDirectory>();
  Reactor reactor;
  std::shared_ptr<TaskPool> pool = std::make_shared<TaskPool>(4);
  ReactorTransport::Config config;

  Fixture() {
    config.retransmit_interval_micros = 5'000;  // keep tests brisk
    config.reconnect_backoff_min_micros = 5'000;
    config.reconnect_backoff_max_micros = 50'000;
  }

  std::unique_ptr<ReactorTransport> make(const std::string& name,
                                         std::uint16_t port = 0) {
    auto transport = std::make_unique<ReactorTransport>(
        PartyId{name}, "127.0.0.1", port, directory, config, reactor, pool);
    directory->set(PartyId{name},
                   PeerAddress{"127.0.0.1", transport->port()});
    return transport;
  }

  /// Like make(), with wire v3 session auth on (test-pool PKI).
  std::unique_ptr<ReactorTransport> make_auth(const std::string& name,
                                              std::uint16_t port = 0);
};

// --- wire-format helpers for the raw-socket tests --------------------------

Bytes frame_with_crc(const Bytes& payload, std::uint32_t crc) {
  Bytes framed(8 + payload.size());
  for (int i = 0; i < 4; ++i) {
    framed[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
    framed[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  std::copy(payload.begin(), payload.end(), framed.begin() + 8);
  return framed;
}

Bytes make_frame(const Bytes& payload) {
  return frame_with_crc(payload, store::crc32(payload));
}

Bytes hello_payload(const std::string& from, const std::string& to,
                    std::uint64_t incarnation) {
  return frame::encode_hello(PartyId{from}, PartyId{to}, incarnation);
}

/// Wire v2: data frames carry the sender incarnation their seq lives in.
Bytes data_payload(std::uint64_t incarnation, std::uint64_t seq,
                   const Bytes& app) {
  return frame::encode_data(incarnation, seq, app);
}

bool send_bytes(Socket& socket, const Bytes& bytes) {
  return socket.send_all(bytes.data(), bytes.size());
}

/// Read one [len][crc][payload] frame off a raw socket (blocking).
bool recv_frame(Socket& socket, Bytes* payload) {
  std::uint8_t header[8];
  if (!socket.recv_exact(header, sizeof header)) return false;
  frame::Header hdr;
  if (!frame::decode_header(header, frame::kMaxFrameLen, &hdr)) return false;
  payload->resize(hdr.len);
  return hdr.len == 0 || socket.recv_exact(payload->data(), hdr.len);
}

// --- wire v3 session-auth helpers (DESIGN.md §11) ---------------------------

/// A fixed roster over the shared deterministic test keypairs.
std::size_t roster_index(const std::string& name) {
  if (name == "a") return 0;
  if (name == "b") return 1;
  return 2;  // the third party "x" the raw-socket games play
}

WireAuth test_auth(const std::string& self) {
  WireAuth auth;
  auth.enabled = true;
  // The pool keys are process-lifetime statics; alias, don't own.
  auth.private_key = std::shared_ptr<const crypto::RsaPrivateKey>(
      std::shared_ptr<const void>{},
      &crypto::test::shared_test_key(roster_index(self)));
  auth.peer_key = [](const PartyId& peer) {
    return std::make_shared<crypto::RsaPublicKey>(
        crypto::test::shared_test_key(roster_index(peer.str())).public_key());
  };
  return auth;
}

std::unique_ptr<ReactorTransport> Fixture::make_auth(const std::string& name,
                                                     std::uint16_t port) {
  ReactorTransport::Config auth_config = config;
  auth_config.auth = test_auth(name);
  auto transport = std::make_unique<ReactorTransport>(
      PartyId{name}, "127.0.0.1", port, directory, auth_config, reactor, pool);
  directory->set(PartyId{name}, PeerAddress{"127.0.0.1", transport->port()});
  return transport;
}

/// Send `from`'s signed, key-carrying hello on a raw socket and return the
/// derived send-direction keys. The games below use a *real* roster key —
/// they model forgery without the session key, not key theft.
ConnKeys raw_auth_handshake(Socket& raw, const std::string& from,
                            const std::string& to, std::uint64_t incarnation) {
  ConnKeys keys;
  Bytes hello = build_hello(test_auth(from), PartyId{from}, PartyId{to},
                            incarnation, &keys);
  EXPECT_FALSE(hello.empty());
  EXPECT_TRUE(send_bytes(raw, make_frame(hello)));
  return keys;
}

// --- transport-level behaviour ---------------------------------------------

TEST(ReactorTransportTest, DeliversPayloadsBetweenParties) {
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink a_sink, b_sink;
  a->set_handler(a_sink.handler());
  b->set_handler(b_sink.handler());

  std::multiset<Bytes> a_want, b_want;
  for (int i = 0; i < 10; ++i) {
    Bytes to_b{static_cast<std::uint8_t>(i)};
    Bytes to_a{static_cast<std::uint8_t>(100 + i)};
    a->send(PartyId{"b"}, to_b);
    b->send(PartyId{"a"}, to_a);
    b_want.insert(std::move(to_b));
    a_want.insert(std::move(to_a));
  }

  ASSERT_TRUE(
      wait_for([&] { return a_sink.count() == 10 && b_sink.count() == 10; }));
  EXPECT_EQ(a_sink.contents(), a_want);
  EXPECT_EQ(b_sink.contents(), b_want);
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0 && b->unacked() == 0; }));

  Transport::Stats a_stats = a->stats();
  Transport::Stats b_stats = b->stats();
  EXPECT_EQ(a_stats.app_sent, 10u);
  EXPECT_EQ(b_stats.app_delivered, 10u);
  EXPECT_GT(a_stats.bytes_sent, 0u);
  EXPECT_GT(a_stats.bytes_received, 0u);
  EXPECT_GE(a_stats.connects, 1u);
  EXPECT_GE(b_stats.connects, 1u);
  EXPECT_EQ(a_stats.frames_dropped_crc, 0u);
  // The loop-level counters are live on this runtime (satellite of the
  // Stats seam): the loop woke up, and the wheel fires a retransmit
  // tick within one interval of now.
  EXPECT_GT(a_stats.epoll_wakeups, 0u);
  EXPECT_TRUE(wait_for([&] { return a->stats().timers_fired > 0; }));
}

TEST(ReactorTransportTest, RetransmitsThroughInjectedLoss) {
  Fixture fx;
  fx.config.faults.drop_probability = 0.5;
  fx.config.fault_seed = 2;
  auto a = fx.make("a");
  fx.config.faults.drop_probability = 0.0;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  for (int i = 0; i < 50; ++i) {
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == 50; }));
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  std::multiset<Bytes> want;
  for (int i = 0; i < 50; ++i) {
    want.insert(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(sink.contents(), want);
  EXPECT_GT(a->stats().retransmissions, 0u);
  EXPECT_GT(a->fabric_stats().frames_dropped_injected, 0u);
}

TEST(ReactorTransportTest, MasksDuplicationToOnceOnlyDelivery) {
  Fixture fx;
  fx.config.faults.duplicate_probability = 1.0;
  fx.config.fault_seed = 3;
  auto a = fx.make("a");
  fx.config.faults.duplicate_probability = 0.0;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  ASSERT_TRUE(wait_for([&] { return b->quiescent(); }));
  EXPECT_EQ(sink.count(), 20u);  // exactly once each, never twice
  EXPECT_GT(a->fabric_stats().frames_duplicated_injected, 0u);
  EXPECT_GT(b->stats().duplicates_suppressed, 0u);
}

TEST(ReactorTransportTest, CrashRecoveryKeepsChannelState) {
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  b->set_alive(false);
  a->send(PartyId{"b"}, Bytes{42});
  std::this_thread::sleep_for(30ms);  // several retransmit intervals
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(a->unacked(), 1u);  // still queued: the channel persists

  b->set_alive(true);
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{42}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
}

TEST(ReactorTransportTest, ReconnectsToRestartedPeerWithFreshIncarnation) {
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  std::uint16_t b_port = b->port();
  Sink sink;
  b->set_handler(sink.handler());

  a->send(PartyId{"b"}, Bytes{1});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // Whole-"process" restart of b on the same loop: the transport dies
  // (dedup state and connections lost) and a new instance binds the
  // same port with a new incarnation.
  std::uint64_t old_incarnation = b->incarnation();
  b.reset();
  a->send(PartyId{"b"}, Bytes{2});  // queued while the peer is down
  b = fx.make("b", b_port);
  EXPECT_NE(b->incarnation(), old_incarnation);
  Sink sink2;
  b->set_handler(sink2.handler());

  ASSERT_TRUE(wait_for([&] { return sink2.count() == 1; }));
  EXPECT_EQ(sink2.contents(), std::multiset<Bytes>{Bytes{2}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  Transport::Stats a_stats = a->stats();
  EXPECT_GE(a_stats.connects, 2u);
  EXPECT_GE(a_stats.reconnects, 1u);

  Sink a_sink;
  a->set_handler(a_sink.handler());
  b->send(PartyId{"a"}, Bytes{3});
  ASSERT_TRUE(wait_for([&] { return a_sink.count() == 1; }));
}

// --- raw-socket byte-stream abuse ------------------------------------------

TEST(ReactorTransportTest, TornFrameIsDroppedAndChannelRecovers) {
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // A client that introduces itself, then dies mid-frame: the header
  // claims 100 bytes, only 3 arrive before the close (half-open torn).
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("torn", "b", 7))));
  Bytes truncated = make_frame(data_payload(7, 0, Bytes(100, 0xab)));
  truncated.resize(8 + 3);
  ASSERT_TRUE(send_bytes(raw, truncated));
  raw.close();

  a->send(PartyId{"b"}, Bytes{5});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{5}});
  EXPECT_EQ(b->stats().frames_dropped_crc, 0u);  // torn ≠ corrupt
}

TEST(ReactorTransportTest, CorruptCrcIsCountedAndNotDelivered) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("evil", "b", 9))));
  Bytes payload = data_payload(9, 0, Bytes{1, 2, 3});
  ASSERT_TRUE(
      send_bytes(raw, frame_with_crc(payload, store::crc32(payload) ^ 1)));

  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_dropped_crc == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(b->stats().app_delivered, 0u);
}

TEST(ReactorTransportTest, SplitWritesReassembleToExactlyOneDelivery) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  raw.set_nodelay();
  Bytes stream = make_frame(hello_payload("slow", "b", 11));
  Bytes data = make_frame(data_payload(11, 0, Bytes{9, 8, 7}));
  stream.insert(stream.end(), data.begin(), data.end());
  // One byte per write: every read on the receiver side is short, so the
  // per-connection stream buffer reassembles across many EPOLLIN edges.
  for (std::uint8_t byte : stream) {
    ASSERT_TRUE(raw.send_all(&byte, 1));
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(send_bytes(raw, data));  // replay: suppressed by dedup

  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().duplicates_suppressed == 1; }));
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{9, 8, 7}}));
  EXPECT_EQ(b->stats().app_delivered, 1u);
}

TEST(ReactorTransportTest, PeerResetMidStreamNeverDuplicatesDelivery) {
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  {
    Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
    ASSERT_TRUE(raw.valid());
    ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("rst", "b", 13))));
    ASSERT_TRUE(send_bytes(raw, make_frame(data_payload(13, 0, Bytes{1}))));
    ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
    Bytes partial = make_frame(data_payload(13, 1, Bytes{2}));
    partial.resize(10);
    ASSERT_TRUE(send_bytes(raw, partial));
    raw.set_linger_reset();
    raw.close();  // RST races the partial frame through the kernel
  }

  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ASSERT_TRUE(send_bytes(again, make_frame(hello_payload("rst", "b", 13))));
  ASSERT_TRUE(send_bytes(again, make_frame(data_payload(13, 0, Bytes{1}))));
  ASSERT_TRUE(send_bytes(again, make_frame(data_payload(13, 1, Bytes{2}))));

  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 2u);  // seq 0 delivered once, not twice
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{1}, Bytes{2}}));
  EXPECT_GE(b->stats().duplicates_suppressed, 1u);

  a->send(PartyId{"b"}, Bytes{3});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 3; }));
}

TEST(ReactorTransportTest, ReplayedAndReorderedFramesStayOnceOnly) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("replay", "b", 17))));
  for (std::uint64_t seq : {2u, 0u, 1u, 1u, 0u, 2u}) {
    ASSERT_TRUE(send_bytes(
        raw,
        make_frame(
            data_payload(17, seq, Bytes{static_cast<std::uint8_t>(seq)}))));
  }

  ASSERT_TRUE(wait_for([&] { return b->stats().duplicates_suppressed == 3; }));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.contents(),
            (std::multiset<Bytes>{Bytes{0}, Bytes{1}, Bytes{2}}));
}

TEST(ReactorTransportTest, StaleIncarnationFramesAreDropped) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket old_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(old_conn.valid());
  ASSERT_TRUE(send_bytes(old_conn, make_frame(hello_payload("x", "b", 1))));
  ASSERT_TRUE(send_bytes(old_conn, make_frame(data_payload(1, 0, Bytes{10}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  Socket new_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(new_conn.valid());
  ASSERT_TRUE(send_bytes(new_conn, make_frame(hello_payload("x", "b", 2))));
  ASSERT_TRUE(send_bytes(new_conn, make_frame(data_payload(2, 0, Bytes{20}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));

  ASSERT_TRUE(send_bytes(old_conn, make_frame(data_payload(1, 1, Bytes{11}))));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{10}, Bytes{20}}));
  EXPECT_GE(b->stats().replays_suppressed, 1u);
}

// --- hostile length prefixes (DESIGN.md §11) --------------------------------

TEST(ReactorTransportTest, HostileLengthPrefixIsRejectedAndConnectionReset) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // First bytes on the wire claim a 4 GiB frame: the loop must refuse
  // to buffer toward it and reset the connection.
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  Bytes evil(8 + 4, 0xee);
  for (int i = 0; i < 4; ++i) {
    evil[i] = 0xFF;  // len = 0xFFFFFFFF
  }
  ASSERT_TRUE(send_bytes(raw, evil));

  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  raw.set_recv_timeout(2'000'000);
  std::uint8_t scratch[64];
  while (raw.recv_some(scratch, sizeof scratch) > 0) {
  }
  // And the transport is unharmed: honest traffic still flows.
  auto a = fx.make("a");
  a->send(PartyId{"b"}, Bytes{6});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.count(), 1u);
}

TEST(ReactorTransportTest, FrameLengthOffByOneOverLimitIsRejected) {
  Fixture fx;
  fx.config.max_frame_bytes = 64;  // small limit keeps the test cheap
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("edge", "b", 21))));
  // A payload of exactly max_frame_bytes is legitimate...
  Bytes app(46, 0x5c);  // 1 + 8 + 8 + 1 + 46 = 64-byte frame payload
  Bytes exact = data_payload(21, 0, app);
  ASSERT_EQ(exact.size(), 64u);
  ASSERT_TRUE(send_bytes(raw, make_frame(exact)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(b->stats().frames_rejected_auth, 0u);

  // ...but one byte over the limit is rejected before it is buffered.
  Bytes over(8 + 4, 0x5d);
  for (int i = 0; i < 4; ++i) {
    over[i] = static_cast<std::uint8_t>(65u >> (8 * i));
  }
  ASSERT_TRUE(send_bytes(raw, over));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(sink.count(), 1u);
}

// --- cross-incarnation replay (DESIGN.md §11, wire v2) ----------------------

TEST(ReactorTransportTest, CrossIncarnationReplayIsSuppressed) {
  Fixture fx;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // Incarnation 1 of "x" delivers seq 0; the intruder records the frame.
  Socket old_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(old_conn.valid());
  ASSERT_TRUE(send_bytes(old_conn, make_frame(hello_payload("x", "b", 1))));
  Bytes recorded = make_frame(data_payload(1, 0, Bytes{10}));
  ASSERT_TRUE(send_bytes(old_conn, recorded));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  old_conn.close();

  // "x" restarts as incarnation 2 and delivers its fresh seq 0.
  Socket new_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(new_conn.valid());
  ASSERT_TRUE(send_bytes(new_conn, make_frame(hello_payload("x", "b", 2))));
  ASSERT_TRUE(
      send_bytes(new_conn, make_frame(data_payload(2, 0, Bytes{20}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));

  // The recorded incarnation-1 frame spliced into the live connection
  // must be suppressed, not delivered against the fresh dedup window;
  // wire v2 proves the splice from the embedded incarnation and kills
  // the connection, so the raw socket drains to EOF.
  ASSERT_TRUE(send_bytes(new_conn, recorded));
  ASSERT_TRUE(wait_for([&] { return b->stats().replays_suppressed >= 1; }));
  new_conn.set_recv_timeout(2'000'000);
  std::uint8_t scratch[64];
  while (new_conn.recv_some(scratch, sizeof scratch) > 0) {
  }
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{10}, Bytes{20}}));

  // Liveness after the attack: the next incarnation connects fine.
  Socket conn3 = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(conn3.valid());
  ASSERT_TRUE(send_bytes(conn3, make_frame(hello_payload("x", "b", 3))));
  ASSERT_TRUE(send_bytes(conn3, make_frame(data_payload(3, 0, Bytes{30}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 3; }));
}

TEST(ReactorTransportTest, ReplayedAckFromWrongIncarnationCannotRetire) {
  Fixture fx;
  fx.config.retransmit_interval_micros = 50'000;  // quiet retransmits
  auto b = fx.make("b");
  b->set_handler([](const PartyId&, const Bytes&) {});

  // Play the remote party "x" with a raw listener so we control acks.
  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});
  b->send(PartyId{"x"}, Bytes{7});

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  conn.set_recv_timeout(5'000'000);
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  wire::Decoder dec{hello};
  ASSERT_EQ(dec.u8(), 2);  // kHello
  dec.u32();               // magic
  dec.u16();               // version
  ASSERT_EQ(dec.str(), "b");
  ASSERT_EQ(dec.str(), "x");
  std::uint64_t b_inc = dec.u64();
  ASSERT_TRUE(send_bytes(conn, make_frame(hello_payload("x", "b", 99))));
  Bytes data;
  ASSERT_TRUE(recv_frame(conn, &data));  // the data frame for seq 0

  // An ack that does not echo b's live incarnation must not retire the
  // message; the genuine echo must.
  ASSERT_TRUE(
      send_bytes(conn, make_frame(frame::encode_ack(b_inc ^ 0x5a5a, 0))));
  ASSERT_TRUE(wait_for([&] { return b->stats().replays_suppressed >= 1; }));
  EXPECT_EQ(b->unacked(), 1u);
  ASSERT_TRUE(send_bytes(conn, make_frame(frame::encode_ack(b_inc, 0))));
  ASSERT_TRUE(wait_for([&] { return b->unacked() == 0; }));
  listener.stop();
}

TEST(ReactorTransportTest, FrameWrittenJustBeforeTickIsNotSentTwice) {
  // A retransmit tick re-sends only frames un-acked for a whole interval
  // since their last write. Sends spread over more than one interval put
  // some frame a few ms before a tick; that frame must not go out again
  // at that tick. A raw peer that never acks records every copy's arrival.
  constexpr auto kInterval = 100ms;
  Fixture fx;
  fx.config.retransmit_interval_micros = 100'000;
  auto b = fx.make("b");
  b->set_handler([](const PartyId&, const Bytes&) {});

  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});
  b->send(PartyId{"x"}, Bytes{0});
  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  ASSERT_TRUE(send_bytes(conn, make_frame(hello_payload("x", "b", 99))));

  using Clock = std::chrono::steady_clock;
  std::mutex arrivals_mutex;
  std::map<std::uint64_t, std::vector<Clock::time_point>> arrivals;
  std::thread reader([&] {
    Bytes payload;
    while (recv_frame(conn, &payload)) {
      wire::Decoder dec{payload};
      if (dec.u8() != frame::kData) continue;
      dec.u64();  // incarnation
      const std::uint64_t seq = dec.u64();
      std::lock_guard<std::mutex> lock(arrivals_mutex);
      arrivals[seq].push_back(Clock::now());
    }
  });

  constexpr int kFrames = 30;  // one every 5 ms: 1.5 intervals of sends
  for (int i = 1; i < kFrames; ++i) {
    std::this_thread::sleep_for(5ms);
    b->send(PartyId{"x"}, Bytes{static_cast<std::uint8_t>(i)});
  }
  std::this_thread::sleep_for(2 * kInterval + 50ms);
  conn.shutdown_both();
  reader.join();
  listener.stop();

  std::lock_guard<std::mutex> lock(arrivals_mutex);
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kFrames));
  for (const auto& [seq, times] : arrivals) {
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE(times[i] - times[i - 1], kInterval / 2)
          << "seq " << seq << " copy " << i << " followed copy " << i - 1
          << " within half an interval";
    }
  }
  // Un-acked frames are still retransmitted once they are overdue.
  EXPECT_GE(arrivals[0].size(), 2u);
  EXPECT_GT(b->stats().retransmissions, 0u);
}

// --- wire v3 must-fail games (DESIGN.md §11) --------------------------------
//
// Four attacks scripted against the event-loop stack: live frame
// rewrite, forged ack, truncated MAC, and hello downgrade-strip — each
// must die as frames_rejected_auth.

TEST(ReactorTransportTest, AuthLiveDataFrameRewriteIsRejected) {
  Fixture fx;
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ConnKeys keys = raw_auth_handshake(raw, "x", "b", 31);
  Bytes d0 = data_payload(31, 0, Bytes{1});
  append_mac(d0, keys.send);
  ASSERT_TRUE(send_bytes(raw, make_frame(d0)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // Rewrite the payload of a live frame, recompute the CRC, keep the
  // (now stale) MAC: the frame must die before parsing.
  Bytes d1 = data_payload(31, 1, Bytes{2});
  append_mac(d1, keys.send);
  d1[18] ^= 0xff;  // the app payload byte (type·inc·seq·len precede it)
  ASSERT_TRUE(send_bytes(raw, make_frame(d1)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 1u);

  // Liveness: a fresh handshake rekeys and the honest seq 1 lands.
  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ConnKeys keys2 = raw_auth_handshake(again, "x", "b", 31);
  Bytes d1_honest = data_payload(31, 1, Bytes{2});
  append_mac(d1_honest, keys2.send);
  ASSERT_TRUE(send_bytes(again, make_frame(d1_honest)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{1}, Bytes{2}}));

  // A seq rewrite fares no better than a payload rewrite.
  Bytes d2 = data_payload(31, 2, Bytes{3});
  append_mac(d2, keys2.send);
  d2[9] ^= 0x04;  // a seq byte
  ASSERT_TRUE(send_bytes(again, make_frame(d2)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 2u);
}

TEST(ReactorTransportTest, AuthForgedAckCannotRetireMessage) {
  Fixture fx;
  fx.config.retransmit_interval_micros = 20'000;
  auto b = fx.make_auth("b");
  b->set_handler([](const PartyId&, const Bytes&) {});

  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});
  b->send(PartyId{"x"}, Bytes{7});

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  conn.set_recv_timeout(5'000'000);
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  wire::Decoder dec{hello};
  ASSERT_EQ(dec.u8(), 2);  // kHello
  frame::Hello b_hello = frame::decode_hello(dec);
  ASSERT_EQ(b_hello.from, "b");
  ASSERT_EQ(b_hello.auth_flag, frame::kAuthHmac);
  ConnKeys x_keys;
  Bytes reply = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"b"}, 99,
                            &x_keys);
  ASSERT_TRUE(send_bytes(conn, make_frame(reply)));
  Bytes data;
  ASSERT_TRUE(recv_frame(conn, &data));  // the MAC'd data frame for seq 0

  // A forged ack — right bytes, wrong tag — must not retire the message.
  Bytes forged = frame::encode_ack(b_hello.incarnation, 0);
  append_mac(forged, crypto::Sha256::hash(bytes_of("not the session key")));
  ASSERT_TRUE(send_bytes(conn, make_frame(forged)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth >= 1; }));
  EXPECT_EQ(b->unacked(), 1u);

  // b killed the connection and redials; the genuine ack over the
  // rekeyed connection retires the message.
  Socket conn2 = listener.accept();
  ASSERT_TRUE(conn2.valid());
  conn2.set_recv_timeout(5'000'000);
  ASSERT_TRUE(recv_frame(conn2, &hello));
  wire::Decoder dec2{hello};
  ASSERT_EQ(dec2.u8(), 2);
  frame::Hello b_hello2 = frame::decode_hello(dec2);
  ConnKeys x_keys2;
  Bytes reply2 = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"b"}, 99,
                             &x_keys2);
  ASSERT_TRUE(send_bytes(conn2, make_frame(reply2)));
  ASSERT_TRUE(recv_frame(conn2, &data));  // retransmitted seq 0
  Bytes genuine = frame::encode_ack(b_hello2.incarnation, 0);
  append_mac(genuine, x_keys2.send);
  ASSERT_TRUE(send_bytes(conn2, make_frame(genuine)));
  ASSERT_TRUE(wait_for([&] { return b->unacked() == 0; }));
  listener.stop();
}

TEST(ReactorTransportTest, AuthTruncatedMacFrameIsRejected) {
  Fixture fx;
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ConnKeys keys = raw_auth_handshake(raw, "x", "b", 41);
  Bytes d0 = data_payload(41, 0, Bytes{1});
  append_mac(d0, keys.send);
  ASSERT_TRUE(send_bytes(raw, make_frame(d0)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // MAC short by one byte, re-framed with a valid CRC.
  Bytes truncated = data_payload(41, 1, Bytes{2});
  append_mac(truncated, keys.send);
  truncated.pop_back();
  ASSERT_TRUE(send_bytes(raw, make_frame(truncated)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));

  // No MAC at all dies the same way.
  Socket bare = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(bare.valid());
  raw_auth_handshake(bare, "x", "b", 41);
  ASSERT_TRUE(send_bytes(bare, make_frame(data_payload(41, 1, Bytes{2}))));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 1u);

  // Liveness: the honest seq 1 lands over a fresh connection.
  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ConnKeys keys2 = raw_auth_handshake(again, "x", "b", 41);
  Bytes d1 = data_payload(41, 1, Bytes{2});
  append_mac(d1, keys2.send);
  ASSERT_TRUE(send_bytes(again, make_frame(d1)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
}

TEST(ReactorTransportTest, AuthHelloDowngradeStripIsRefused) {
  Fixture fx;
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  // A stripped (unauthenticated) hello to an auth-required endpoint.
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("x", "b", 5))));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 0u);

  // And the reverse: an auth-less endpoint refuses an authenticated
  // hello instead of ignoring fields it cannot check.
  auto p = fx.make("p");
  p->set_handler(sink.handler());
  Socket cross = tcp_connect("127.0.0.1", p->port(), 1'000'000);
  ASSERT_TRUE(cross.valid());
  ConnKeys unused;
  Bytes auth_hello = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"p"},
                                 7, &unused);
  ASSERT_TRUE(send_bytes(cross, make_frame(auth_hello)));
  ASSERT_TRUE(
      wait_for([&] { return p->stats().frames_rejected_auth == 1; }));

  // Liveness: the honest authenticated pair is unharmed.
  auto a = fx.make_auth("a");
  a->send(PartyId{"b"}, Bytes{6});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{6}});
}

// --- reactor-specific fan-in shapes ----------------------------------------

TEST(ReactorTransportTest, ManySimultaneousDialsFanInToOneAcceptor) {
  // Dozens of parties dial one hub in the same instant — every dial is a
  // non-blocking connect racing through one level-triggered accept loop,
  // all on a single thread.
  Fixture fx;
  auto hub = fx.make("hub");
  Sink sink;
  hub->set_handler(sink.handler());

  constexpr int kSenders = 40;
  std::vector<std::unique_ptr<ReactorTransport>> senders;
  senders.reserve(kSenders);
  for (int i = 0; i < kSenders; ++i) {
    senders.push_back(fx.make("s" + std::to_string(i)));
  }
  for (int i = 0; i < kSenders; ++i) {
    senders[static_cast<std::size_t>(i)]->send(
        PartyId{"hub"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == kSenders; }));
  std::multiset<Bytes> want;
  for (int i = 0; i < kSenders; ++i) {
    want.insert(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(sink.contents(), want);
  for (auto& sender : senders) {
    ASSERT_TRUE(wait_for([&] { return sender->unacked() == 0; }));
  }
}

TEST(ReactorTransportTest, WriteBackpressureDrainsOnEpollout) {
  // A tiny send buffer forces the backpressure path: DATA frames beyond
  // the cap are NOT buffered; the retransmit timer re-offers them once
  // EPOLLOUT has drained the connection. Everything still arrives
  // exactly once.
  Fixture fx;
  fx.config.max_send_buffer_bytes = 16 * 1024;
  auto a = fx.make("a");
  fx.config.max_send_buffer_bytes = 4u << 20;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  constexpr int kMessages = 100;
  const Bytes big(4 * 1024, 0xcd);
  for (int i = 0; i < kMessages; ++i) {
    Bytes payload = big;
    payload[0] = static_cast<std::uint8_t>(i);
    a->send(PartyId{"b"}, payload);
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == kMessages; },
                       20'000ms));
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  EXPECT_EQ(b->stats().app_delivered,
            static_cast<std::uint64_t>(kMessages));
}

TEST(ReactorTransportTest, RestartChurnNeverDuplicatesDelivery) {
  // Kill and rebind the receiver several times mid-traffic: every
  // incarnation change resets the sender's dedup view, and no payload is
  // ever delivered twice to any single incarnation.
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  const std::uint16_t b_port = b->port();

  std::size_t delivered_total = 0;
  for (int round = 0; round < 4; ++round) {
    auto round_sink = std::make_unique<Sink>();
    b->set_handler(round_sink->handler());
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(round)});
    ASSERT_TRUE(wait_for([&] { return round_sink->count() >= 1; }));
    ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
    delivered_total += round_sink->count();
    b->set_handler({});
    b.reset();
    b = fx.make("b", b_port);
  }
  EXPECT_GE(delivered_total, 4u);
  EXPECT_GE(a->stats().reconnects, 3u);
}

TEST(ReactorTransportTest, FdExhaustionShedsAcceptsAndRecovers) {
  // Exhaust the process fd table, then dial the transport: accept hits
  // EMFILE, the listener disarms (no spin) and rearms once descriptors
  // return; traffic then flows normally. This is the ulimit smoke CI
  // runs under a lowered RLIMIT_NOFILE.
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  std::vector<int> hogs;
  for (;;) {
    int fd = ::dup(STDOUT_FILENO);
    if (fd < 0) break;  // table full
    hogs.push_back(fd);
  }
  // First contact while starved: the dial may itself fail (no fd for the
  // socket) or reach an acceptor with no fd to accept with. Both sides
  // retry on their timers.
  a->send(PartyId{"b"}, Bytes{7});
  std::this_thread::sleep_for(50ms);
  for (int fd : hogs) ::close(fd);

  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }, 20'000ms));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{7}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
}

// --- runtime bundle ---------------------------------------------------------

TEST(ReactorRuntimeTest, ExecutorSettlesOnQuiescence) {
  ReactorRuntime::Options options;
  options.transport.retransmit_interval_micros = 5'000;
  ReactorRuntime runtime(options);
  Transport& a = runtime.add_party(PartyId{"a"});
  Transport& b = runtime.add_party(PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(
      runtime.executor().run_until([&] { return sink.count() == 20; }));
  runtime.executor().settle();
  EXPECT_EQ(a.unacked(), 0u);
  EXPECT_EQ(sink.count(), 20u);
}

TEST(ReactorRuntimeTest, DirectoryResolvesEphemeralPorts) {
  auto directory = std::make_shared<PeerDirectory>();
  directory->set(PartyId{"a"}, PeerAddress{"127.0.0.1", 0});
  ReactorRuntime::Options options;
  options.directory = directory;
  ReactorRuntime runtime(options);
  runtime.add_party(PartyId{"a"});
  auto address = directory->lookup(PartyId{"a"});
  ASSERT_TRUE(address.has_value());
  EXPECT_NE(address->port, 0);
  EXPECT_EQ(runtime.transport(PartyId{"a"})->port(), address->port);
}

TEST(ReactorRuntimeTest, TimerInFlightCannotRaceBundleTeardown) {
  // Destroying the bundle while a schedule_after callback is about to
  // touch a transport must be safe: the wheel timer hands the callback
  // to the pool, and shutdown stops transports before loop and pool.
  for (int i = 0; i < 20; ++i) {
    ReactorRuntime::Options options;
    auto runtime = std::make_unique<ReactorRuntime>(options);
    Transport& a = runtime->add_party(PartyId{"a"});
    runtime->add_party(PartyId{"b"})
        .set_handler([](const PartyId&, const Bytes&) {});
    runtime->clock().schedule_after(
        static_cast<std::uint64_t>(i) * 100,
        [&a] { a.send(PartyId{"b"}, Bytes{1}); });
    runtime.reset();
  }
}

TEST(ReactorRuntimeTest, ThreadCountStaysFlatAcrossParties) {
  // The C10K shape in miniature: 1 loop + K workers regardless of how
  // many parties (sockets, timers) the bundle hosts.
  auto count_threads = [] {
    // /proc/self/stat field 20 (1-based) is num_threads; parse past the
    // comm field, which may contain spaces, via the closing paren.
    FILE* f = std::fopen("/proc/self/stat", "r");
    if (!f) return -1L;
    char buf[1024];
    std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const char* p = std::strrchr(buf, ')');
    if (!p) return -1L;
    long value = -1;
    int field = 2;  // the field after ')' is state, field 3
    for (p = p + 1; *p != '\0'; ++p) {
      if (*p == ' ') {
        ++field;
        if (field == 20) {
          value = std::strtol(p + 1, nullptr, 10);
          break;
        }
      }
    }
    return value;
  };

  ReactorRuntime::Options options;
  ReactorRuntime runtime(options);
  runtime.add_party(PartyId{"p0"});
  const long base = count_threads();
  ASSERT_GT(base, 0);
  for (int i = 1; i < 32; ++i) {
    runtime.add_party(PartyId{"p" + std::to_string(i)});
  }
  const long after = count_threads();
  EXPECT_EQ(after, base);  // 31 more parties, zero more threads
}

}  // namespace
}  // namespace b2b::net
