// Real-thread implementation of the runtime seam.
//
// Each party's ThreadedTransport runs on its own OS threads (a receiver
// draining a mutex/condvar mailbox, plus a retransmit timer), talking over
// an in-process lossy ThreadedNetwork. The delivery semantics are the same
// as ReliableEndpoint over SimNetwork — positive acknowledgement with
// retransmission for *eventual* delivery across loss and crash/recovery,
// per-sender sequence dedup (DedupWindow) for *once-only* delivery — so
// the protocol layer cannot tell the difference, which is the point: the
// same Coordinator/Replica code that runs deterministically on the
// simulator here serves genuinely concurrent traffic.
//
// What the threaded network does NOT model: link delays beyond natural
// scheduling jitter, partitions, and the Dolev-Yao intruder — those remain
// simulator-only instruments. Loss, duplication and node crash/recovery
// are supported.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/chacha20.hpp"
#include "net/dedup.hpp"
#include "net/runtime.hpp"

namespace b2b::net {

/// Fault model of the in-process channel. Probabilities are sampled from
/// a seeded generator under the network lock, so loss patterns are
/// repeatable even though thread interleavings are not.
struct ThreadedFaults {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

struct ThreadedNetworkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t datagrams_duplicated = 0;
};

class ThreadedTransport;

/// The in-process datagram fabric: a registry of per-party mailboxes.
class ThreadedNetwork {
 public:
  explicit ThreadedNetwork(std::uint64_t seed = 1,
                           ThreadedFaults faults = ThreadedFaults{});

  void set_faults(const ThreadedFaults& faults);

  /// Crash (`alive=false`) or recover (`alive=true`) a node, as
  /// SimNetwork::set_alive: a dead node neither sends nor receives.
  void set_alive(const PartyId& node, bool alive);
  bool alive(const PartyId& node) const;

  ThreadedNetworkStats stats() const;

 private:
  friend class ThreadedTransport;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<PartyId, Bytes>> queue;
    bool closed = false;
    bool dispatching = false;  // a frame is being processed right now
  };

  /// Register `node`; returns its (stable, shared) mailbox.
  std::shared_ptr<Mailbox> attach(const PartyId& node);
  void detach(const PartyId& node);

  /// Send one datagram, applying the fault model.
  void deliver(const PartyId& from, const PartyId& to, const Bytes& payload);

  mutable std::mutex mutex_;  // registry, fault model, rng, stats
  crypto::ChaCha20Rng rng_;
  ThreadedFaults faults_;
  std::unordered_map<PartyId, std::shared_ptr<Mailbox>> boxes_;
  std::unordered_map<PartyId, bool> alive_;
  ThreadedNetworkStats stats_;
};

/// Eventual once-only delivery over a ThreadedNetwork, on real threads.
class ThreadedTransport final : public Transport {
 public:
  struct Config {
    /// Real-time retransmission interval for un-acked messages.
    std::uint64_t retransmit_interval_micros = 2'000;
    /// Give-up bound so a permanently dead peer cannot pin the
    /// retransmit thread (and quiescence) forever.
    std::size_t max_retransmits = 50'000;
  };

  ThreadedTransport(ThreadedNetwork& network, PartyId self, Config config);
  ThreadedTransport(ThreadedNetwork& network, PartyId self)
      : ThreadedTransport(network, std::move(self), Config{}) {}
  ~ThreadedTransport() override;

  ThreadedTransport(const ThreadedTransport&) = delete;
  ThreadedTransport& operator=(const ThreadedTransport&) = delete;

  // Transport interface — all entry points are thread-safe.
  void send(const PartyId& to, Bytes payload) override;
  void set_handler(Handler handler) override;
  void set_handler_sync(Handler handler) override;
  void set_delivery_failure_handler(DeliveryFailureHandler handler) override;
  const PartyId& self() const override { return self_; }
  std::size_t unacked() const override;
  Stats stats() const override;

  /// Quiescence: nothing un-acked, inbox drained, no frame in flight
  /// through the handler. Polled by ThreadedExecutor::settle.
  bool quiescent() const;

  /// Stop the worker threads (idempotent; also run by the destructor).
  void shutdown();

 private:
  void receive_loop();
  void retransmit_loop();
  void process_frame(const PartyId& from, const Bytes& frame);

  ThreadedNetwork& network_;
  PartyId self_;
  Config config_;
  std::shared_ptr<ThreadedNetwork::Mailbox> mailbox_;

  mutable std::mutex mutex_;  // everything below
  Handler handler_;
  DeliveryFailureHandler failure_handler_;
  Transport::Stats stats_;
  struct Outgoing {
    Bytes payload;
    std::size_t attempts = 1;
    /// When the frame last went to the network (send or re-send).
    std::chrono::steady_clock::time_point last_write;
  };
  std::unordered_map<PartyId, std::uint64_t> next_seq_;
  std::map<std::pair<PartyId, std::uint64_t>, Outgoing> outgoing_;
  std::unordered_map<PartyId, DedupWindow> delivered_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;

  std::thread receiver_;
  std::thread retransmitter_;
};

/// Real monotonic time plus a timer thread for schedule_after.
class SystemClock final : public Clock {
 public:
  SystemClock();
  ~SystemClock() override;

  SystemClock(const SystemClock&) = delete;
  SystemClock& operator=(const SystemClock&) = delete;

  std::uint64_t now_micros() const override;
  void schedule_after(std::uint64_t delay_micros,
                      std::function<void()> fn) override;

  /// Stop the timer thread; pending timers are dropped.
  void shutdown();

 private:
  void timer_loop();

  struct Timer {
    std::uint64_t due_micros;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (due_micros != other.due_micros) return due_micros > other.due_micros;
      return seq > other.seq;
    }
  };

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::thread thread_;
};

/// Progress = real time passing while worker threads run. `run_until`
/// polls the predicate; `settle` waits for a caller-supplied quiescence
/// probe to hold over several consecutive samples.
class ThreadedExecutor final : public Executor {
 public:
  struct Config {
    std::uint64_t poll_interval_micros = 500;
    /// run_until / settle give up after this much real time.
    std::uint64_t timeout_micros = 60'000'000;
    /// Consecutive quiescent samples settle requires.
    int stable_samples = 3;
  };

  ThreadedExecutor(std::function<bool()> quiescent, Config config)
      : quiescent_(std::move(quiescent)), config_(config) {}
  explicit ThreadedExecutor(std::function<bool()> quiescent)
      : ThreadedExecutor(std::move(quiescent), Config{}) {}

  bool run_until(const std::function<bool()>& predicate) override;
  void settle() override;

 private:
  std::function<bool()> quiescent_;
  Config config_;
};

/// The whole threaded substrate as one bundle: lossy in-process fabric,
/// real clock, one ThreadedTransport per party, and an executor whose
/// quiescence probe covers every transport the bundle handed out.
/// Destroying the bundle stops all worker threads (transports first, then
/// the timer thread).
class ThreadedRuntime final : public Runtime {
 public:
  struct Options {
    std::uint64_t seed = 1;
    ThreadedFaults faults{};
    ThreadedTransport::Config transport{};
    ThreadedExecutor::Config executor{};
  };

  explicit ThreadedRuntime(const Options& options)
      : network_(options.seed, options.faults),
        transport_config_(options.transport),
        executor_([this] { return quiescent(); }, options.executor) {}

  ~ThreadedRuntime() override { shutdown(); }

  /// Explicit stop barrier. The timer thread is joined FIRST: a
  /// schedule_after callback in flight may call into a transport (a
  /// coordinator probing a run, say), so transports must not start dying
  /// until no such callback can still be running. Member destruction
  /// order alone ran that race the other way (transports_ is declared
  /// after clock_, hence destroyed before it). Idempotent; the destructor
  /// calls it. Harnesses that own threads fed by these transports
  /// (coordinator shard lanes) call this, then stop their threads, then
  /// let destructors run.
  void shutdown() {
    clock_.shutdown();
    for (auto& transport : transports_) transport->shutdown();
  }

  Transport& add_party(const PartyId& id) override {
    transports_.push_back(std::make_unique<ThreadedTransport>(
        network_, id, transport_config_));
    return *transports_.back();
  }

  Clock& clock() override { return clock_; }
  Executor& executor() override { return executor_; }

  ThreadedNetwork& network() { return network_; }

  /// True when every transport has drained its inbox and holds nothing
  /// un-acked, and every registered probe agrees. Sound because any
  /// in-flight frame implies a non-empty mailbox or a sender with
  /// un-acked state.
  bool quiescent() const {
    for (const auto& transport : transports_) {
      if (!transport->quiescent()) return false;
    }
    for (const auto& probe : quiescence_probes_) {
      if (!probe()) return false;
    }
    return true;
  }

  /// Extra quiescence condition consulted by settle(), e.g. "this
  /// coordinator's shard lanes are idle" — a frame acked by the transport
  /// may still be queued on a per-object dispatch lane. Register and poll
  /// from the harness thread only (settle() runs there too).
  void add_quiescence_probe(std::function<bool()> probe) {
    quiescence_probes_.push_back(std::move(probe));
  }

 private:
  ThreadedNetwork network_;
  SystemClock clock_;
  ThreadedTransport::Config transport_config_;
  // Stopped explicitly by the destructor above, after the timer thread;
  // declared after network_ so receiver/retransmit threads die while the
  // fabric they use is still alive.
  std::vector<std::unique_ptr<ThreadedTransport>> transports_;
  std::vector<std::function<bool()>> quiescence_probes_;
  ThreadedExecutor executor_;
};

}  // namespace b2b::net
