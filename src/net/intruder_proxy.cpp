#include "net/intruder_proxy.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "store/crc32.hpp"
#include "wire/codec.hpp"

namespace b2b::net {

namespace {

/// Human-readable label for a frame, refining data frames by the b2b
/// message type byte they carry (Envelope::encode puts it first; the
/// values mirror b2b::core::MsgType — kept as a local table so the net
/// layer does not depend on the protocol layer).
std::string frame_label(const FrameInfo& info) {
  if (info.frame_type == frame::kHello) return "hello";
  if (info.frame_type == frame::kAck) return "ack";
  if (info.frame_type != frame::kData) return "unknown";
  switch (info.msg_type) {
    case 1: return "data:propose";
    case 2: return "data:respond";
    case 3: return "data:decide";
    case 10: return "data:connect-req";
    case 11: return "data:m-propose";
    case 12: return "data:m-respond";
    case 13: return "data:m-decide";
    case 14: return "data:welcome";
    case 15: return "data:connect-reject";
    case 16: return "data:disconnect-req";
    case 17: return "data:disconnect-confirm";
    case 20: return "data:ttp-request";
    case 21: return "data:ttp-verdict";
    default: return "data:" + std::to_string(int{info.msg_type});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// MutationSchedule
// ---------------------------------------------------------------------------

IntruderAction MutationSchedule::next_action(const FrameInfo& info) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string label = frame_label(info);
  const std::string dir = info.to_victim ? info.client + ">" + info.victim
                                         : info.victim + ">" + info.client;
  std::string& prev = prev_label_[dir];
  const std::string transition =
      (prev.empty() ? std::string("start") : prev) + ">" + label;
  prev = label;
  std::uint64_t& count = transitions_[transition];
  ++count;
  if (actions_ >= config_.max_actions) return IntruderAction::kForward;
  // Coverage guidance: spend the budget on transitions we have barely
  // seen; the steady state only gets the baseline rate.
  const double p =
      count <= 2 ? config_.novel_boost : config_.action_probability;
  if (rng_.next_double() >= p) return IntruderAction::kForward;
  ++actions_;
  static constexpr IntruderAction kArsenal[] = {
      IntruderAction::kDrop,    IntruderAction::kDelay,
      IntruderAction::kDuplicate, IntruderAction::kReorder,
      IntruderAction::kReplay,  IntruderAction::kTruncate,
      IntruderAction::kMutate,
      // The wire v3 tail: only drawn when auth_arsenal is set.
      IntruderAction::kRewrite, IntruderAction::kForgeAck,
      IntruderAction::kDowngrade, IntruderAction::kSplice,
  };
  const std::size_t pool = config_.auth_arsenal ? std::size(kArsenal) : 7;
  return kArsenal[rng_.next_below(pool)];
}

std::vector<std::string> MutationSchedule::transitions_covered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(transitions_.size());
  for (const auto& [transition, count] : transitions_) {
    out.push_back(transition);
  }
  return out;
}

std::size_t MutationSchedule::actions_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return actions_;
}

std::uint64_t MutationSchedule::next_below(std::uint64_t bound) {
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_.next_below(bound);
}

// ---------------------------------------------------------------------------
// IntruderProxy
// ---------------------------------------------------------------------------

IntruderProxy::IntruderProxy(std::shared_ptr<PeerDirectory> directory,
                             Config config)
    : directory_(std::move(directory)),
      config_(std::move(config)),
      schedule_(config_.schedule),
      active_(config_.active) {
  if (!directory_) throw Error("intruder: a peer directory is required");
}

IntruderProxy::~IntruderProxy() { shutdown(); }

void IntruderProxy::interpose(const PartyId& victim) {
  auto real = directory_->lookup(victim);
  if (!real || real->port == 0) {
    throw Error("intruder: no bound address for " + victim.str() +
                " (interpose after the transport binds)");
  }
  auto tap = std::make_unique<Tap>();
  tap->victim = victim;
  tap->real = *real;
  tap->listener = Listener::open("127.0.0.1", 0);
  directory_->set(victim, PeerAddress{"127.0.0.1", tap->listener.port()});
  Tap* raw = tap.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw Error("intruder: interpose after shutdown");
    ++stats_.parties_interposed;
    taps_.push_back(std::move(tap));
  }
  raw->acceptor = std::thread([this, raw] { accept_loop(*raw); });
}

void IntruderProxy::set_active(bool active) { active_.store(active); }

IntruderStats IntruderProxy::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  IntruderStats out = stats_;
  out.open_pairs = pairs_.size();
  return out;
}

void IntruderProxy::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  for (auto& tap : taps_) tap->listener.stop();
  for (auto& tap : taps_) {
    if (tap->acceptor.joinable()) tap->acceptor.join();
  }
  std::vector<PairPtr> pairs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pairs = pairs_;
  }
  for (auto& pair : pairs) {
    pair->dead = true;
    pair->client_sock.shutdown_both();
    pair->victim_sock.shutdown_both();
  }
  for (auto& pair : pairs) {
    if (pair->c2v.joinable()) pair->c2v.join();
    if (pair->v2c.joinable()) pair->v2c.join();
  }
  // Point the victims' entries back at their real addresses so a
  // harness outliving the proxy keeps a working directory.
  for (auto& tap : taps_) directory_->set(tap->victim, tap->real);
}

void IntruderProxy::accept_loop(Tap& tap) {
  for (;;) {
    Socket client = tap.listener.accept();
    if (!client.valid()) return;  // stop()
    reap_pairs();
    Socket victim =
        tcp_connect(tap.real.host, tap.real.port, config_.dial_timeout_micros);
    if (!victim.valid()) continue;  // victim down: client sees EOF
    client.set_nodelay();
    victim.set_nodelay();
    auto pair = std::make_shared<Pair>();
    pair->victim = tap.victim;
    pair->client_sock = std::move(client);
    pair->victim_sock = std::move(victim);
    // The relay threads start under the lock, so no reaper (another
    // tap's acceptor) can see the pair before both are assigned.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    ++stats_.connections_intercepted;
    pairs_.push_back(pair);
    pair->c2v = std::thread([this, pair] { relay(pair, true); });
    pair->v2c = std::thread([this, pair] { relay(pair, false); });
  }
}

void IntruderProxy::reap_pairs() {
  std::vector<PairPtr> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(pairs_, [&](const PairPtr& pair) {
      if (pair->relays_exited.load() < 2) return false;
      finished.push_back(pair);
      return true;
    });
  }
  for (const PairPtr& pair : finished) {
    pair->c2v.join();
    pair->v2c.join();
  }
}

void IntruderProxy::kill_pair(const PairPtr& pair) {
  pair->dead = true;
  // shutdown, not close: the peer relay thread may be blocked in recv();
  // close() runs once, when the Pair is destroyed after both joins.
  pair->client_sock.shutdown_both();
  pair->victim_sock.shutdown_both();
}

void IntruderProxy::record(const std::string& flow, Bytes framed,
                           std::uint64_t inc) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& arsenal = recorded_[flow];
  if (arsenal.size() >= config_.max_recorded_per_flow) {
    arsenal.erase(arsenal.begin());
  }
  arsenal.push_back(Recorded{std::move(framed), inc});
}

IntruderAction IntruderProxy::decide(const FrameInfo& info) {
  if (!active_.load()) return IntruderAction::kForward;
  if (config_.script) {
    if (auto forced = config_.script(info)) return *forced;
  }
  return schedule_.next_action(info);
}

bool IntruderProxy::write_framed(Socket& out, const Bytes& framed,
                                 std::optional<Bytes>& held) {
  if (!out.send_all(framed.data(), framed.size())) return false;
  if (held) {
    // A reordered frame leaves right behind the frame that overtook it.
    Bytes h = std::move(*held);
    held.reset();
    if (!out.send_all(h.data(), h.size())) return false;
  }
  return true;
}

Bytes IntruderProxy::mutated_field_payload(const Bytes& payload) {
  try {
    wire::Decoder dec{payload};
    const std::uint8_t type = dec.u8();
    wire::Encoder enc;
    Bytes tail;  // bytes after the rewritten fields, preserved verbatim
    if (type == frame::kHello) {
      std::uint32_t magic = dec.u32();
      std::uint16_t version = dec.u16();
      const std::string from = dec.str();
      const std::string to = dec.str();
      std::uint64_t inc = dec.u64();
      tail = dec.raw(dec.remaining());  // v3 auth flag (+ key/signature)
      switch (schedule_.next_below(3)) {
        case 0: magic ^= 0x5A5A; break;       // rejected at the handshake
        case 1: version ^= 1; break;          // rejected at the handshake
        default:                              // wrong incarnation adopted:
          inc ^= 1ull << schedule_.next_below(64);  // later frames kill conn
          if (inc == 0) inc = 1;
          break;
      }
      enc.u8(type).u32(magic).u16(version).str(from).str(to).u64(inc);
    } else if (type == frame::kData) {
      std::uint64_t inc = dec.u64();
      const std::uint64_t seq = dec.u64();
      const Bytes app = dec.blob();
      tail = dec.raw(dec.remaining());  // session MAC, left stale
      // Only the incarnation: kMutate stays legal against a MAC-less
      // wire. Live seq/payload rewrites are kRewrite — the wire v3
      // arsenal that an authenticated transport must catch by MAC.
      inc ^= 1ull << schedule_.next_below(64);
      if (inc == 0) inc = 1;
      enc.u8(type).u64(inc).u64(seq).blob(app);
    } else if (type == frame::kAck) {
      std::uint64_t inc = dec.u64();
      std::uint64_t seq = dec.u64();
      tail = dec.raw(dec.remaining());  // session MAC, left stale
      if (schedule_.next_below(2) == 0) {
        inc ^= 1ull << schedule_.next_below(64);  // ignored by the receiver
        if (inc == 0) inc = 1;
      } else {
        seq |= 1ull << 63;  // acks a sequence number that can never exist
      }
      enc.u8(type).u64(inc).u64(seq);
    } else {
      return payload;
    }
    // On an authenticated wire the preserved-but-now-stale MAC (or the
    // re-signed-nothing hello tail) is exactly what gives the rewrite
    // away; on a MAC-less wire the frame stays structurally valid.
    Bytes out = std::move(enc).take();
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  } catch (const CodecError&) {
    return payload;
  }
}

bool IntruderProxy::apply(const PairPtr& pair, bool to_victim, Socket& out,
                          const FrameInfo& info, const Bytes& payload,
                          std::optional<Bytes>& held) {
  const IntruderAction action = decide(info);
  const Bytes framed = frame::frame_payload(payload);
  std::string flow = info.to_victim ? info.client + ">" + info.victim
                                    : info.victim + ">" + info.client;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frames_seen;
  }
  record(flow, framed, info.incarnation);
  switch (action) {
    case IntruderAction::kForward: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.forwarded;
      }
      return write_framed(out, framed, held);
    }
    case IntruderAction::kDrop: {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.dropped;
      return true;
    }
    case IntruderAction::kDelay: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.delayed;
      }
      const std::uint64_t millis =
          1 + schedule_.next_below(schedule_.max_delay_millis());
      std::this_thread::sleep_for(std::chrono::milliseconds(millis));
      return write_framed(out, framed, held);
    }
    case IntruderAction::kDuplicate: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.duplicated;
      }
      if (!write_framed(out, framed, held)) return false;
      return out.send_all(framed.data(), framed.size());
    }
    case IntruderAction::kReorder: {
      // Hellos must stay first on the stream; holding one would wedge
      // the handshake with nothing behind it to trade places with.
      if (info.frame_type == frame::kHello || held) {
        return write_framed(out, framed, held);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.reordered;
      }
      held = framed;
      return true;
    }
    case IntruderAction::kReplay: {
      if (!write_framed(out, framed, held)) return false;
      Bytes recorded;
      bool cross = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = recorded_.find(flow);
        if (it != recorded_.end() && !it->second.empty()) {
          std::uint64_t leg_inc;
          {
            std::lock_guard<std::mutex> name_lock(pair->name_mutex);
            leg_inc = pair->leg_incarnation[to_victim ? 0 : 1];
          }
          // Prefer ammunition from another incarnation of the sender —
          // the nastiest splice available — and cycle the full arsenal
          // otherwise. A cursor (not a random draw) guarantees a long
          // campaign re-injects every recorded frame at least once; the
          // arsenal grows alongside it, so a plain modulo over the whole
          // vector would pin to the newest (harmless) frames forever.
          std::vector<const Recorded*> cross_picks;
          for (const Recorded& r : it->second) {
            if (r.incarnation != 0 && leg_inc != 0 &&
                r.incarnation != leg_inc) {
              cross_picks.push_back(&r);
            }
          }
          const Recorded& pick =
              cross_picks.empty()
                  ? it->second[replay_cursor_++ % it->second.size()]
                  : *cross_picks[replay_cursor_++ % cross_picks.size()];
          recorded = pick.framed;
          cross = pick.incarnation != 0 && leg_inc != 0 &&
                  pick.incarnation != leg_inc;
          ++stats_.replayed;
          if (cross) ++stats_.replayed_cross_incarnation;
        }
      }
      if (recorded.empty()) return true;
      return out.send_all(recorded.data(), recorded.size());
    }
    case IntruderAction::kTruncate: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.truncated;
      }
      const std::size_t cut = 1 + schedule_.next_below(framed.size() - 1);
      out.send_all(framed.data(), cut);  // best effort: the pair dies next
      return false;
    }
    case IntruderAction::kMutate: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.mutated;
      }
      Bytes attack;
      const std::uint64_t variant = schedule_.next_below(4);
      switch (variant) {
        case 0: {  // hostile length prefix: must be rejected, not malloc'd
          attack = framed;
          frame::put_u32_le(attack.data(), 0xFFFF'FFFFu);
          break;
        }
        case 1: {  // CRC flipped: checksum layer must reset the stream
          attack = framed;
          attack[4 + schedule_.next_below(4)] ^=
              static_cast<std::uint8_t>(1u << schedule_.next_below(8));
          break;
        }
        case 2: {  // off-by-one length: desyncs framing, CRC catches it
          attack = framed;
          frame::put_u32_le(attack.data(),
                            static_cast<std::uint32_t>(payload.size()) + 1);
          break;
        }
        default: {  // unsigned field rewritten, CRC recomputed
          attack = frame::frame_payload(mutated_field_payload(payload));
          break;
        }
      }
      if (!out.send_all(attack.data(), attack.size())) return false;
      // Variants 0-2 leave the stream unparseable past this frame; the
      // receiver resets, we fold the pair, and retransmission recovers
      // over a fresh connection. The recomputed-CRC variant (3) passes
      // the checksum layer, so the stream — and the attack — carry on.
      return variant == 3;
    }
    case IntruderAction::kRewrite: {
      // The wire v3 headline attack: rewrite a live data frame's seq or
      // payload, recompute the CRC (so the checksum layer waves it
      // through), leave the session MAC stale. Only the MAC can catch it.
      if (info.frame_type != frame::kData || payload.size() < 2) {
        return write_framed(out, framed, held);
      }
      Bytes attack = payload;
      // Flip a bit in the authenticated region (type byte excluded, the
      // trailing MAC — when the wire carries one — excluded).
      const std::size_t end = attack.size() > frame::kMacLen + 1
                                  ? attack.size() - frame::kMacLen
                                  : attack.size();
      const std::size_t at = 1 + schedule_.next_below(end - 1);
      attack[at] ^= static_cast<std::uint8_t>(1u << schedule_.next_below(8));
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rewritten;
      }
      const Bytes attack_framed = frame::frame_payload(attack);
      return write_framed(out, attack_framed, held);
    }
    case IntruderAction::kForgeAck: {
      // Fabricate an ack for the destination's live incarnation without
      // the session key: on an authenticated wire the garbage MAC must
      // kill it before it can retire an in-flight message.
      if (!write_framed(out, framed, held)) return false;
      std::uint64_t dest_inc;
      {
        std::lock_guard<std::mutex> name_lock(pair->name_mutex);
        dest_inc = pair->leg_incarnation[to_victim ? 1 : 0];
      }
      Bytes forged = frame::encode_ack(
          dest_inc, info.frame_type == frame::kData ? info.seq
                                                    : schedule_.next_below(8));
      for (std::size_t i = 0; i < frame::kMacLen; ++i) {
        forged.push_back(static_cast<std::uint8_t>(schedule_.next_below(256)));
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.acks_forged;
      }
      const Bytes forged_framed = frame::frame_payload(forged);
      return out.send_all(forged_framed.data(), forged_framed.size());
    }
    case IntruderAction::kDowngrade: {
      // Strip the auth fields from a hello and force the flag to
      // kAuthNone: an auth-required endpoint must refuse the handshake
      // rather than fall back to a MAC-less connection.
      if (info.frame_type != frame::kHello) {
        return write_framed(out, framed, held);
      }
      Bytes stripped;
      try {
        wire::Decoder dec{payload};
        dec.u8();  // kHello
        const frame::Hello hello = frame::decode_hello(dec);
        if (hello.auth_flag == frame::kAuthNone) {
          return write_framed(out, framed, held);  // nothing to strip
        }
        stripped = frame::encode_hello(PartyId{hello.from}, PartyId{hello.to},
                                       hello.incarnation);
      } catch (const CodecError&) {
        return write_framed(out, framed, held);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.downgraded;
      }
      const Bytes stripped_framed = frame::frame_payload(stripped);
      return write_framed(out, stripped_framed, held);
    }
    case IntruderAction::kSplice: {
      // Inject a frame recorded on a *different* flow: internally
      // consistent bytes, wrong connection. Only a per-connection key
      // (or, pre-v3, the embedded incarnation) can tell it apart.
      if (!write_framed(out, framed, held)) return false;
      Bytes foreign;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<const Recorded*> picks;
        for (const auto& [other_flow, arsenal] : recorded_) {
          if (other_flow == flow) continue;
          for (const Recorded& r : arsenal) picks.push_back(&r);
        }
        if (!picks.empty()) {
          foreign = picks[replay_cursor_++ % picks.size()]->framed;
          ++stats_.spliced;
        }
      }
      if (foreign.empty()) return true;
      return out.send_all(foreign.data(), foreign.size());
    }
  }
  return true;
}

void IntruderProxy::relay(const PairPtr& pair, bool to_victim) {
  Socket& in = to_victim ? pair->client_sock : pair->victim_sock;
  Socket& out = to_victim ? pair->victim_sock : pair->client_sock;
  Bytes rbuf;
  std::size_t head = 0;
  std::optional<Bytes> held;  // kReorder slot
  std::uint8_t chunk[64 * 1024];
  bool alive = true;
  bool clean_eof = false;
  while (alive) {
    const long n = in.recv_some(chunk, sizeof chunk);
    if (n <= 0) {
      clean_eof = n == 0;
      break;
    }
    rbuf.insert(rbuf.end(), chunk, chunk + n);
    for (;;) {
      if (rbuf.size() - head < frame::kHeaderLen) break;
      frame::Header hdr;
      if (!frame::decode_header(rbuf.data() + head, config_.max_frame_bytes,
                                &hdr)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hostile_lengths_rejected;
        alive = false;
        break;
      }
      if (rbuf.size() - head < frame::kHeaderLen + hdr.len) break;
      Bytes payload(rbuf.begin() + static_cast<std::ptrdiff_t>(
                                       head + frame::kHeaderLen),
                    rbuf.begin() + static_cast<std::ptrdiff_t>(
                                       head + frame::kHeaderLen + hdr.len));
      head += frame::kHeaderLen + hdr.len;
      if (head == rbuf.size()) {
        rbuf.clear();
        head = 0;
      } else if (head > 65536) {
        rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }

      FrameInfo info;
      info.victim = pair->victim.str();
      info.to_victim = to_victim;
      try {
        wire::Decoder dec{payload};
        info.frame_type = dec.u8();
        if (info.frame_type == frame::kData) {
          info.incarnation = dec.u64();
          info.seq = dec.u64();
          const Bytes app = dec.blob();
          if (!app.empty()) info.msg_type = app[0];
        } else if (info.frame_type == frame::kAck) {
          info.incarnation = dec.u64();
          info.seq = dec.u64();
        } else if (info.frame_type == frame::kHello) {
          dec.u32();  // magic
          dec.u16();  // version
          const std::string from = dec.str();
          dec.str();  // to
          info.incarnation = dec.u64();
          std::lock_guard<std::mutex> lock(pair->name_mutex);
          if (to_victim) pair->client_name = from;
          pair->leg_incarnation[to_victim ? 0 : 1] = info.incarnation;
        }
      } catch (const CodecError&) {
        info.frame_type = 0xFF;
      }
      {
        std::lock_guard<std::mutex> lock(pair->name_mutex);
        info.client = pair->client_name;
      }
      if (!apply(pair, to_victim, out, info, payload, held)) {
        alive = false;
        break;
      }
    }
  }
  if (held) out.send_all(held->data(), held->size());  // best effort
  if (clean_eof && !pair->dead) {
    // An orderly EOF ends this direction only: pass the FIN on and let
    // the other relay drain what is still in flight the other way (acks)
    // until that side closes too.
    out.shutdown_write();
  } else {
    kill_pair(pair);  // read error, hostile length or scripted kill
  }
  pair->relays_exited.fetch_add(1);
}

}  // namespace b2b::net
