#include "net/threaded_runtime.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "wire/codec.hpp"

namespace b2b::net {

namespace {

constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;

Bytes encode_frame(std::uint8_t type, std::uint64_t seq, BytesView payload) {
  wire::Encoder enc;
  enc.u8(type).u64(seq);
  if (type == kData) enc.blob(payload);
  return std::move(enc).take();
}

void sleep_micros(std::uint64_t micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadedNetwork
// ---------------------------------------------------------------------------

ThreadedNetwork::ThreadedNetwork(std::uint64_t seed, ThreadedFaults faults)
    : rng_(seed), faults_(faults) {}

void ThreadedNetwork::set_faults(const ThreadedFaults& faults) {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_ = faults;
}

void ThreadedNetwork::set_alive(const PartyId& node, bool alive) {
  std::lock_guard<std::mutex> lock(mutex_);
  alive_[node] = alive;
}

bool ThreadedNetwork::alive(const PartyId& node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = alive_.find(node);
  return it == alive_.end() || it->second;
}

ThreadedNetworkStats ThreadedNetwork::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<ThreadedNetwork::Mailbox> ThreadedNetwork::attach(
    const PartyId& node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& box = boxes_[node];
  if (!box) box = std::make_shared<Mailbox>();
  alive_[node] = true;
  return box;
}

void ThreadedNetwork::detach(const PartyId& node) {
  std::lock_guard<std::mutex> lock(mutex_);
  boxes_.erase(node);
}

void ThreadedNetwork::deliver(const PartyId& from, const PartyId& to,
                              const Bytes& payload) {
  std::shared_ptr<Mailbox> box;
  int copies = 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.datagrams_sent;
    auto from_alive = alive_.find(from);
    auto to_alive = alive_.find(to);
    bool both_alive = (from_alive == alive_.end() || from_alive->second) &&
                      (to_alive == alive_.end() || to_alive->second);
    auto it = boxes_.find(to);
    if (!both_alive || it == boxes_.end()) {
      ++stats_.datagrams_dropped;
      return;
    }
    if (faults_.drop_probability > 0.0 &&
        rng_.next_double() < faults_.drop_probability) {
      ++stats_.datagrams_dropped;
      return;
    }
    if (faults_.duplicate_probability > 0.0 &&
        rng_.next_double() < faults_.duplicate_probability) {
      ++stats_.datagrams_duplicated;
      copies = 2;
    }
    stats_.datagrams_delivered += copies;
    box = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(box->mutex);
    if (box->closed) return;
    for (int i = 0; i < copies; ++i) box->queue.emplace_back(from, payload);
  }
  box->cv.notify_one();
}

// ---------------------------------------------------------------------------
// ThreadedTransport
// ---------------------------------------------------------------------------

ThreadedTransport::ThreadedTransport(ThreadedNetwork& network, PartyId self,
                                     Config config)
    : network_(network),
      self_(std::move(self)),
      config_(config),
      mailbox_(network.attach(self_)) {
  receiver_ = std::thread([this] { receive_loop(); });
  retransmitter_ = std::thread([this] { retransmit_loop(); });
}

ThreadedTransport::~ThreadedTransport() {
  shutdown();
  network_.detach(self_);
}

void ThreadedTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopping_) {
      // Already shut down (idempotent) — just make sure threads joined.
    }
    stopping_ = true;
  }
  stop_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mailbox_->mutex);
    mailbox_->closed = true;
  }
  mailbox_->cv.notify_all();
  if (receiver_.joinable()) receiver_.join();
  if (retransmitter_.joinable()) retransmitter_.join();
}

void ThreadedTransport::send(const PartyId& to, Bytes payload) {
  std::uint64_t seq;
  Bytes frame;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = next_seq_[to]++;
    frame = encode_frame(kData, seq, payload);
    outgoing_[{to, seq}] =
        Outgoing{std::move(payload), 1, std::chrono::steady_clock::now()};
    ++stats_.app_sent;
    stats_.bytes_sent += frame.size();
  }
  network_.deliver(self_, to, frame);
}

void ThreadedTransport::set_handler(Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
}

void ThreadedTransport::set_handler_sync(Handler handler) {
  set_handler(std::move(handler));
  // process_frame snapshots the handler *before* invoking it, so a frame
  // popped before the swap may still be running through the old handler.
  // Wait for the receiver to finish that dispatch; afterwards the old
  // handler's target can be destroyed safely.
  std::unique_lock<std::mutex> lock(mailbox_->mutex);
  mailbox_->cv.wait(lock, [this] { return !mailbox_->dispatching; });
}

void ThreadedTransport::set_delivery_failure_handler(
    DeliveryFailureHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  failure_handler_ = std::move(handler);
}

std::size_t ThreadedTransport::unacked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outgoing_.size();
}

Transport::Stats ThreadedTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ThreadedTransport::quiescent() const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!outgoing_.empty()) return false;
  }
  std::lock_guard<std::mutex> lock(mailbox_->mutex);
  return mailbox_->queue.empty() && !mailbox_->dispatching;
}

void ThreadedTransport::receive_loop() {
  for (;;) {
    PartyId from;
    Bytes frame;
    {
      std::unique_lock<std::mutex> lock(mailbox_->mutex);
      mailbox_->cv.wait(
          lock, [this] { return mailbox_->closed || !mailbox_->queue.empty(); });
      if (mailbox_->closed) return;
      from = std::move(mailbox_->queue.front().first);
      frame = std::move(mailbox_->queue.front().second);
      mailbox_->queue.pop_front();
      // Quiescence must not report an empty inbox while the popped frame
      // is still being processed (it may trigger further sends).
      mailbox_->dispatching = true;
    }
    process_frame(from, frame);
    {
      std::lock_guard<std::mutex> lock(mailbox_->mutex);
      mailbox_->dispatching = false;
    }
    // Wake set_handler_sync callers waiting for the dispatch to drain.
    mailbox_->cv.notify_all();
  }
}

void ThreadedTransport::process_frame(const PartyId& from, const Bytes& frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_received += frame.size();
  }
  std::uint8_t type;
  std::uint64_t seq;
  Bytes payload;
  try {
    wire::Decoder dec{frame};
    type = dec.u8();
    seq = dec.u64();
    if (type == kData) payload = dec.blob();
    dec.expect_done();
  } catch (const CodecError&) {
    B2B_DEBUG("threaded: dropping malformed frame from ", from);
    return;
  }

  if (type == kAck) {
    std::lock_guard<std::mutex> lock(mutex_);
    outgoing_.erase({from, seq});
    return;
  }

  // DATA: always acknowledge, deliver only the first copy.
  Handler handler;
  bool deliver = false;
  Bytes ack = encode_frame(kAck, seq, {});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.acks_sent;
    stats_.bytes_sent += ack.size();
    if (delivered_[from].mark(seq)) {
      deliver = true;
      ++stats_.app_delivered;
      handler = handler_;
    } else {
      ++stats_.duplicates_suppressed;
    }
  }
  network_.deliver(self_, from, ack);
  // Invoke the handler outside the transport lock: it re-enters the
  // transport (replies) and takes the coordinator lock, so holding our
  // mutex here would invert the coordinator->transport lock order.
  if (deliver && handler) handler(from, payload);
}

void ThreadedTransport::retransmit_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      stop_cv_.wait_for(
          lock, std::chrono::microseconds(config_.retransmit_interval_micros),
          [this] { return stopping_; });
      if (stopping_) return;
    }
    std::vector<std::pair<PartyId, Bytes>> frames;
    std::vector<PartyId> failed;
    DeliveryFailureHandler failure_handler;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto now = std::chrono::steady_clock::now();
      const auto interval =
          std::chrono::microseconds(config_.retransmit_interval_micros);
      for (auto it = outgoing_.begin(); it != outgoing_.end();) {
        auto& [key, out] = *it;
        // Written less than one interval ago (a send just before this
        // tick): its ack may still be on the way, so it is not due yet.
        if (now - out.last_write < interval) {
          ++it;
          continue;
        }
        if (out.attempts >= config_.max_retransmits) {
          B2B_WARN("threaded: giving up on ", self_, " -> ", key.first,
                   " seq ", key.second);
          failed.push_back(key.first);
          it = outgoing_.erase(it);
          continue;
        }
        ++out.attempts;
        ++stats_.retransmissions;
        out.last_write = now;
        frames.emplace_back(key.first,
                            encode_frame(kData, key.second, out.payload));
        stats_.bytes_sent += frames.back().second.size();
        ++it;
      }
      if (!failed.empty()) failure_handler = failure_handler_;
    }
    for (auto& [to, frame] : frames) network_.deliver(self_, to, frame);
    // Outside mutex_: the callback re-enters the coordinator, which may
    // call back into the transport (lock-order inversion otherwise).
    if (failure_handler) {
      for (const auto& to : failed) failure_handler(to);
    }
  }
}

// ---------------------------------------------------------------------------
// SystemClock
// ---------------------------------------------------------------------------

SystemClock::SystemClock() : epoch_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] { timer_loop(); });
}

SystemClock::~SystemClock() { shutdown(); }

void SystemClock::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t SystemClock::now_micros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void SystemClock::schedule_after(std::uint64_t delay_micros,
                                 std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    timers_.push(Timer{now_micros() + delay_micros, next_seq_++,
                       std::move(fn)});
  }
  cv_.notify_all();
}

void SystemClock::timer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (timers_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !timers_.empty(); });
      continue;
    }
    std::uint64_t due = timers_.top().due_micros;
    std::uint64_t now = now_micros();
    if (now < due) {
      cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    auto fn = timers_.top().fn;
    timers_.pop();
    lock.unlock();
    fn();  // may schedule more timers; must not hold our lock
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// ThreadedExecutor
// ---------------------------------------------------------------------------

bool ThreadedExecutor::run_until(const std::function<bool()>& predicate) {
  std::uint64_t waited = 0;
  while (waited < config_.timeout_micros) {
    if (predicate()) return true;
    sleep_micros(config_.poll_interval_micros);
    waited += config_.poll_interval_micros;
  }
  return predicate();
}

void ThreadedExecutor::settle() {
  std::uint64_t waited = 0;
  int stable = 0;
  while (waited < config_.timeout_micros) {
    if (quiescent_ && quiescent_()) {
      if (++stable >= config_.stable_samples) return;
    } else {
      stable = 0;
    }
    sleep_micros(config_.poll_interval_micros);
    waited += config_.poll_interval_micros;
  }
  B2B_WARN("threaded executor: settle timed out before quiescence");
}

}  // namespace b2b::net
