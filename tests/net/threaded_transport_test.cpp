// ThreadedTransport: the same §4.2 delivery contract as ReliableEndpoint
// (eventual once-only delivery across loss, duplication and crash/
// recovery), but on real OS threads over the in-process ThreadedNetwork.
#include "net/threaded_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

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

/// A thread-safe payload sink (the handler runs on the receiver thread).
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

TEST(ThreadedTransportTest, DeliversPayloadsBetweenParties) {
  ThreadedNetwork network(1);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  Sink a_sink, b_sink;
  a.set_handler(a_sink.handler());
  b.set_handler(b_sink.handler());

  std::multiset<Bytes> a_want, b_want;
  for (int i = 0; i < 10; ++i) {
    Bytes to_b{static_cast<std::uint8_t>(i)};
    Bytes to_a{static_cast<std::uint8_t>(100 + i)};
    a.send(PartyId{"b"}, to_b);
    b.send(PartyId{"a"}, to_a);
    b_want.insert(std::move(to_b));
    a_want.insert(std::move(to_a));
  }

  ASSERT_TRUE(wait_for([&] { return a_sink.count() == 10 && b_sink.count() == 10; }));
  EXPECT_EQ(a_sink.contents(), a_want);
  EXPECT_EQ(b_sink.contents(), b_want);
  ASSERT_TRUE(wait_for([&] { return a.unacked() == 0 && b.unacked() == 0; }));
  EXPECT_EQ(a.stats().app_sent, 10u);
  EXPECT_EQ(b.stats().app_delivered, 10u);
}

TEST(ThreadedTransportTest, RetransmitsThroughInjectedLoss) {
  ThreadedFaults faults;
  faults.drop_probability = 0.5;
  ThreadedNetwork network(2, faults);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());

  for (int i = 0; i < 50; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  // Despite heavy loss, every payload eventually arrives exactly once.
  ASSERT_TRUE(wait_for([&] { return sink.count() == 50; }));
  ASSERT_TRUE(wait_for([&] { return a.unacked() == 0; }));
  std::multiset<Bytes> want;
  for (int i = 0; i < 50; ++i) {
    want.insert(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(sink.contents(), want);
  EXPECT_GT(a.stats().retransmissions, 0u);
  EXPECT_GT(network.stats().datagrams_dropped, 0u);
}

TEST(ThreadedTransportTest, MasksDuplicationToOnceOnlyDelivery) {
  ThreadedFaults faults;
  faults.duplicate_probability = 1.0;  // the fabric doubles every datagram
  ThreadedNetwork network(3, faults);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return a.unacked() == 0; }));
  ASSERT_TRUE(wait_for([&] { return b.quiescent(); }));
  EXPECT_EQ(sink.count(), 20u);  // exactly once each, never twice
  EXPECT_GT(network.stats().datagrams_duplicated, 0u);
  EXPECT_GT(b.stats().duplicates_suppressed, 0u);
}

TEST(ThreadedTransportTest, ResumesAfterReceiverCrashRecovery) {
  ThreadedNetwork network(4);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());

  network.set_alive(PartyId{"b"}, false);
  a.send(PartyId{"b"}, Bytes{42});
  std::this_thread::sleep_for(20ms);  // several retransmit intervals
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(a.unacked(), 1u);  // still queued: the channel persists

  network.set_alive(PartyId{"b"}, true);
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{42}});
  ASSERT_TRUE(wait_for([&] { return a.unacked() == 0; }));
}

TEST(ThreadedTransportTest, QuiescenceReflectsOutstandingTraffic) {
  ThreadedNetwork network(5);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  b.set_handler([](const PartyId&, const Bytes&) {});

  EXPECT_TRUE(a.quiescent());  // nothing ever sent

  // With the peer down, the un-acked message keeps `a` non-quiescent.
  network.set_alive(PartyId{"b"}, false);
  a.send(PartyId{"b"}, Bytes{1});
  EXPECT_FALSE(a.quiescent());
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(a.quiescent());

  // Recovery drains the channel; both sides settle.
  network.set_alive(PartyId{"b"}, true);
  ASSERT_TRUE(wait_for([&] { return a.quiescent() && b.quiescent(); }));
  EXPECT_EQ(a.unacked(), 0u);
}

TEST(ThreadedRuntimeTest, TimerInFlightCannotRaceBundleTeardown) {
  // Regression: ThreadedRuntime used to rely on member destruction order
  // to stop its workers, which tore transports down BEFORE joining the
  // SystemClock timer thread — so a schedule_after callback in flight
  // could call into a destroyed transport. The explicit destructor now
  // joins the timer first. Sweep the delay so some callbacks land exactly
  // inside the teardown window; under TSan a surviving race is a failure.
  for (int i = 0; i < 50; ++i) {
    ThreadedRuntime::Options options;
    auto runtime = std::make_unique<ThreadedRuntime>(options);
    Transport& a = runtime->add_party(PartyId{"a"});
    a.set_handler([](const PartyId&, const Bytes&) {});
    runtime->add_party(PartyId{"b"})
        .set_handler([](const PartyId&, const Bytes&) {});
    runtime->clock().schedule_after(
        static_cast<std::uint64_t>(i % 10) * 50,
        [&a] { a.send(PartyId{"b"}, Bytes{1}); });
    runtime.reset();  // destruction races the in-flight timer
  }
}

TEST(ThreadedTransportTest, ExecutorSettlesOnQuiescence) {
  ThreadedFaults faults;
  faults.drop_probability = 0.3;
  ThreadedNetwork network(6, faults);
  ThreadedTransport a(network, PartyId{"a"});
  ThreadedTransport b(network, PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());
  ThreadedExecutor executor(
      [&] { return a.quiescent() && b.quiescent(); });

  for (int i = 0; i < 20; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(executor.run_until([&] { return sink.count() == 20; }));
  executor.settle();
  EXPECT_EQ(a.unacked(), 0u);
  EXPECT_EQ(sink.count(), 20u);
}

TEST(ThreadedTransportTest, FrameWrittenJustBeforeTickIsNotSentTwice) {
  // A retransmit tick re-sends only frames un-acked for a whole interval
  // since their last write. Frame 0 goes to a crashed peer; the tick that
  // re-sends it fixes the tick phase. Frame 1 is written shortly before
  // the next tick, which must re-send frame 0 again but not frame 1.
  constexpr auto kInterval = 200ms;
  ThreadedNetwork network(7);
  network.set_alive(PartyId{"x"}, false);
  ThreadedTransport::Config config;
  config.retransmit_interval_micros = 200'000;
  ThreadedTransport a(network, PartyId{"a"}, config);
  const auto retransmissions = [&] { return a.stats().retransmissions; };

  a.send(PartyId{"x"}, Bytes{0});
  ASSERT_TRUE(wait_for([&] { return retransmissions() == 1; }));
  std::this_thread::sleep_for(kInterval - 40ms);
  a.send(PartyId{"x"}, Bytes{1});
  ASSERT_TRUE(wait_for([&] { return retransmissions() >= 2; }));
  std::this_thread::sleep_for(kInterval / 4);  // well before the next tick
  EXPECT_EQ(retransmissions(), 2u)
      << "frame 1 was re-sent at the first tick after its send, about "
         "40 ms after it was written";
  EXPECT_EQ(a.unacked(), 2u);
}

}  // namespace
}  // namespace b2b::net
