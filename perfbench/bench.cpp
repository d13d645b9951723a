#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "b2b/arbiter.hpp"
#include "crypto/chacha20.hpp"

namespace perfbench {

namespace core = b2b::core;
using Outcome = core::RunResult::Outcome;

namespace {

constexpr std::size_t kParties = 3;
// A run that has not completed after this long is counted as failed; the
// slowest workload completes an operation in well under a second.
constexpr std::int64_t kOpTimeoutNs = 20'000'000'000;
// On the sim the per-layer counts are taken over this many first traced
// operations after warm-up, so for one seed they repeat exactly.
constexpr std::size_t kCountWindowOps = 16;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(4);
    // rss_items is under half of what each workload agrees in a 30 s
    // run on a 4-vCPU Xeon VM.
    w[0].name = "single-1k";
    w[0].rss_items = 300;
    w[1].name = "batch16-16k";
    w[1].batch = 16;
    w[1].state_bytes = 16 * 1024;
    w[1].rss_items = 1600;
    w[2].name = "deal4-1k";
    w[2].objects = 4;
    w[2].deal = true;
    w[2].rss_items = 200;
    w[3].name = "reactor4-fsync";
    w[3].runtime = core::RuntimeKind::kReactor;
    w[3].objects = 4;
    w[3].journal = true;
    w[3].wire_auth = true;
    w[3].reactor_workers = 2;
    w[3].rss_items = 500;
    return w;
  }();
  return all;
}

std::uint64_t dir_bytes(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(root, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- BenchRegister ----------------------------------------------------------

void BenchRegister::apply_state(BytesView state) {
  if (!tracker_.trace_upcalls) {
    value.assign(state.begin(), state.end());
    return;
  }
  const std::int64_t start = tracker_.now();
  value.assign(state.begin(), state.end());
  const std::int64_t end = tracker_.now();
  std::lock_guard<std::mutex> lock(tracker_.mutex);
  tracker_.objects[index_].upcalls.push_back(
      Span{0, 0, 0, "apps.apply_us", start, end});
}

core::Decision BenchRegister::validate_state(
    BytesView /*proposed*/, const core::ValidationContext& ctx) {
  const std::int64_t start = tracker_.now();
  core::Decision verdict = core::Decision::accepted();
  const std::int64_t end = tracker_.now();
  std::lock_guard<std::mutex> lock(tracker_.mutex);
  ObjectTrack& track = tracker_.objects[index_];
  if (ctx.local_party != ctx.proposer && track.first_validate_ns == 0) {
    track.first_validate_ns = start;
  }
  if (tracker_.trace_upcalls) {
    track.upcalls.push_back(Span{0, 0, 0, "apps.validate_us", start, end});
  }
  return verdict;
}

void BenchRegister::coord_callback(const core::CoordEvent& event) {
  using Kind = core::CoordEvent::Kind;
  const std::int64_t at = tracker_.now();
  {
    std::lock_guard<std::mutex> lock(tracker_.mutex);
    ObjectTrack& track = tracker_.objects[index_];
    switch (event.kind) {
      case Kind::kStateInstalled:
        ++track.installs;
        track.installed_ns = std::max(track.installed_ns, at);
        break;
      case Kind::kStateAgreed:
        track.agreed_ns = std::max(track.agreed_ns, at);
        break;
      case Kind::kStateVetoed:
      case Kind::kViolationDetected:
      case Kind::kMemberDisconnected:
        ++track.bad_events;
        break;
      default:
        break;
    }
  }
  tracker_.changed.notify_all();
}

// --- Bench --------------------------------------------------------------------

struct Bench::Op {
  std::size_t slot = 0;
  std::vector<std::size_t> objects;
  std::vector<std::uint64_t> install_target;  // per entry of `objects`
  std::vector<Bytes> expected;                // final state per object
  core::RunHandle handle;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
};

Bench::Bench(const Workload& workload, std::uint64_t seed, std::string workdir)
    : workload_(workload), seed_(seed), workdir_(std::move(workdir)) {
  for (std::size_t p = 0; p < kParties; ++p) {
    names_.push_back("org" + std::to_string(p));
  }
  for (std::size_t j = 0; j < workload_.objects; ++j) {
    object_ids_.push_back(b2b::ObjectId{"register-" + std::to_string(j)});
  }
  tracker_.objects.resize(workload_.objects);
  tracker_.clock = workload_.clock();
  last_labels_.resize(workload_.objects);

  // State bytes come from the seed only; each state then carries a
  // unique counter in its first 8 bytes.
  b2b::crypto::ChaCha20Rng rng(seed_ ^ 0x5eed'b2b0'0000'0000ULL);
  const std::size_t pool = std::max<std::size_t>(8, 2 * workload_.items_per_op());
  for (std::size_t i = 0; i < pool; ++i) {
    state_pool_.push_back(rng.bytes(workload_.state_bytes));
  }

  core::Federation::Options options;
  options.rsa_bits = 1024;
  options.seed = seed_;
  options.runtime = workload_.runtime;
  options.use_tss = true;
  options.pipeline = workload_.batch > 1;
  options.wire_auth = workload_.wire_auth;
  options.reactor_workers = workload_.reactor_workers;
  if (workload_.journal) {
    options.journal_root = (std::filesystem::path(workdir_) / "journals").string();
    options.journal_fsync = true;
  }

  registers_.resize(kParties);
  for (std::size_t p = 0; p < kParties; ++p) {
    for (std::size_t j = 0; j < workload_.objects; ++j) {
      registers_[p].push_back(std::make_unique<BenchRegister>(tracker_, j));
    }
  }
  fed_ = std::make_unique<core::Federation>(names_, options);
  for (std::size_t j = 0; j < workload_.objects; ++j) {
    for (std::size_t p = 0; p < kParties; ++p) {
      fed_->register_object(names_[p], object_ids_[j], *registers_[p][j]);
    }
    fed_->bootstrap_object(object_ids_[j], names_, sample_state(next_state_++));
  }
}

Bench::~Bench() = default;

Bytes Bench::sample_state(std::uint64_t n) {
  Bytes state = state_pool_[n % state_pool_.size()];
  for (std::size_t b = 0; b < 8 && b < state.size(); ++b) {
    state[b] = static_cast<std::uint8_t>(n >> (8 * b));
  }
  return state;
}

std::unique_ptr<Bench::Op> Bench::submit(std::size_t slot) {
  auto op = std::make_unique<Op>();
  op->slot = slot;
  if (workload_.deal) {
    for (std::size_t j = 0; j < workload_.objects; ++j) op->objects.push_back(j);
  } else {
    op->objects.push_back(slot);
  }
  const std::size_t per_object = workload_.deal ? 1 : workload_.batch;
  {
    std::lock_guard<std::mutex> lock(tracker_.mutex);
    for (std::size_t j : op->objects) {
      ObjectTrack& track = tracker_.objects[j];
      track.first_validate_ns = 0;
      track.agreed_ns = track.installed_ns = 0;
      track.upcalls.clear();
      op->install_target.push_back(track.installs +
                                   per_object * (kParties - 1));
    }
  }

  // Object j is proposed by org(j mod 3); a deal is initiated by org0.
  const std::string& proposer = names_[workload_.deal ? 0 : slot % kParties];
  core::Coordinator& coord = fed_->coordinator(proposer);
  if (workload_.deal) {
    core::DealCoordinator::DealSpec spec;
    for (std::size_t j : op->objects) {
      core::DealCoordinator::LegSpec leg;
      leg.object = object_ids_[j];
      leg.new_state = sample_state(next_state_++);
      leg.payload = leg.new_state;
      leg.is_update = false;
      op->expected.push_back(leg.new_state);
      spec.legs.push_back(std::move(leg));
    }
    op->submit_ns = tracker_.now();
    op->handle = fed_->start_deal(proposer, std::move(spec));
  } else if (workload_.batch > 1) {
    std::vector<core::Replica::BatchOp> ops;
    for (std::size_t i = 0; i < workload_.batch; ++i) {
      Bytes state = sample_state(next_state_++);
      ops.push_back({false, state, state});
    }
    op->expected.push_back(ops.back().new_state);
    op->submit_ns = tracker_.now();
    op->handle = coord.propagate_batch(object_ids_[slot], std::move(ops));
  } else {
    Bytes state = sample_state(next_state_++);
    op->expected.push_back(state);
    // The proposer's object holds the new state before it proposes it.
    registers_[slot % kParties][slot]->value = state;
    op->submit_ns = tracker_.now();
    op->handle = coord.propagate_new_state(object_ids_[slot], std::move(state));
  }
  op->submitted_ns = tracker_.now();
  return op;
}

bool Bench::op_done(const Op& op) {
  if (!op.handle->done()) return false;
  for (std::size_t i = 0; i < op.objects.size(); ++i) {
    if (tracker_.objects[op.objects[i]].installs < op.install_target[i]) {
      return false;
    }
  }
  return true;
}

void Bench::finish(Op& op, bool traced, PassResult& out) {
  std::int64_t first_validate = 0, agreed = 0, end = 0;
  std::vector<Span> upcalls;
  bool ok = op.handle->outcome.load() == Outcome::kAgreed;
  {
    std::lock_guard<std::mutex> lock(tracker_.mutex);
    for (std::size_t i = 0; i < op.objects.size(); ++i) {
      const std::size_t j = op.objects[i];
      ObjectTrack& track = tracker_.objects[j];
      if (track.installs != op.install_target[i] || track.bad_events != 0) {
        ok = false;
      }
      // Every responder holds exactly the bytes that were proposed.
      for (std::size_t p = 0; p < kParties; ++p) {
        if (workload_.deal ? p == 0 : p == op.slot % kParties) continue;
        if (registers_[p][j]->value != op.expected[i]) ok = false;
      }
      if (track.first_validate_ns != 0 &&
          (first_validate == 0 || track.first_validate_ns < first_validate)) {
        first_validate = track.first_validate_ns;
      }
      agreed = std::max(agreed, track.agreed_ns);
      end = std::max({end, track.installed_ns, track.agreed_ns});
      if (traced) {
        upcalls.insert(upcalls.end(), track.upcalls.begin(),
                       track.upcalls.end());
      }
    }
  }
  if (!ok) {
    out.problems.push_back("operation not agreed: " + op.handle->diagnostic);
    return;
  }
  ++out.agreed;
  out.items += workload_.items_per_op();
  out.latency_ms.push_back((end - op.submit_ns) / 1e6);
  if (workload_.deal) {
    deal_handles_.push_back(op.handle);
    for (std::size_t j : op.objects) last_labels_[j] = op.handle->run_label;
  } else {
    last_labels_[op.slot] = op.handle->run_label;
  }
  if (!traced) return;

  const std::uint64_t trace = next_trace_id_++;
  const std::uint64_t root = trace << 16;
  std::uint64_t next = root + 1;
  out.spans.push_back(Span{trace, root, 0, "op", op.submit_ns, end});
  auto child = [&](const char* name, std::int64_t start, std::int64_t stop) {
    out.spans.push_back(Span{trace, next++, root, name, start, stop});
  };
  child("b2b.submit_us", op.submit_ns, op.submitted_ns);
  // The phases tile the operation. Responders run one after another on
  // the sim, so the respond phase starts at the FIRST responder's
  // validation: starting it at the last one would leave the earlier
  // responders' work in no phase.
  if (first_validate != 0) {
    child("b2b.phase.propose_us", op.submitted_ns, first_validate);
    child("b2b.phase.respond_us", first_validate, agreed);
  }
  child("b2b.phase.decide_us", agreed, end);
  for (const Span& s : upcalls) child(s.name, s.start_ns, s.end_ns);
}

void Bench::warm_up(std::vector<std::string>& problems) {
  PassResult scratch;
  for (std::size_t slot = 0; slot < workload_.in_flight(); ++slot) {
    std::unique_ptr<Op> op = submit(slot);
    fed_->run_until_done(op->handle);
    fed_->settle();
    std::unique_lock<std::mutex> lock(tracker_.mutex);
    tracker_.changed.wait_for(lock, std::chrono::seconds(20),
                              [&] { return op_done(*op); });
    lock.unlock();
    finish(*op, false, scratch);
  }
  problems.insert(problems.end(), scratch.problems.begin(),
                  scratch.problems.end());
}

PassResult Bench::run(double seconds, bool traced, bool read_rss) {
  PassResult out;
  tracker_.trace_upcalls = traced;
  const bool sim = workload_.runtime == core::RuntimeKind::kSim;
  // On the sim the counts come from the first kCountWindowOps traced
  // operations only, so for one seed they repeat exactly.
  const bool take_window = traced && sim && !count_window_taken_;
  const Counters before = counters();
  const double cpu0 = process_cpu_s();
  // The pass lasts `seconds` of wall time; what it reports is read on the
  // workload's clock.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t c0 = tracker_.now();
  std::int64_t last_done = c0;
  bool window_taken = false;

  std::vector<std::unique_ptr<Op>> slots(workload_.in_flight());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slots[s] = submit(s);
    ++out.attempted;
  }
  auto busy = [&] {
    return std::any_of(slots.begin(), slots.end(),
                       [](const auto& op) { return op != nullptr; });
  };
  while (busy()) {
    if (sim) {
      // One caller: the sim delivers inline, so driving the single run
      // to completion and draining the decides is the whole operation.
      Op& op = *slots[0];
      fed_->run_until_done(op.handle);
      fed_->settle();
    } else {
      std::unique_lock<std::mutex> lock(tracker_.mutex);
      tracker_.changed.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return std::any_of(slots.begin(), slots.end(), [&](const auto& op) {
          return op != nullptr && op_done(*op);
        });
      });
    }
    const std::int64_t now = now_ns();
    const std::int64_t clock_now = tracker_.now();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s]) continue;
      bool done;
      {
        std::lock_guard<std::mutex> lock(tracker_.mutex);
        done = op_done(*slots[s]);
      }
      if (!done) {
        // Only the reactor waits; its clock is wall time.
        if (!sim && now - slots[s]->submit_ns < kOpTimeoutNs) continue;
        out.problems.push_back("operation did not complete: " +
                               slots[s]->handle->diagnostic);
        slots[s].reset();
        continue;
      }
      finish(*slots[s], traced, out);
      last_done = clock_now;
      slots[s].reset();
      const std::uint64_t completed = out.agreed + out.problems.size();
      if (take_window && !window_taken && completed == kCountWindowOps) {
        out.count_window = counters();
        out.count_window -= before;
        out.count_window_items = out.items;
        window_taken = count_window_taken_ = true;
      }
      if (read_rss && out.rss_mb == 0 && out.items >= workload_.rss_items) {
        out.rss_mb = peak_rss_mb();
      }
      const bool want_more =
          out.problems.empty() &&
          (now < deadline || (read_rss && out.rss_mb == 0) ||
           (take_window && !window_taken));
      if (want_more) {
        slots[s] = submit(s);
        ++out.attempted;
      }
    }
  }
  out.elapsed_s = (last_done - c0) / 1e9;
  out.cpu_s = process_cpu_s() - cpu0;
  if (!sim) fed_->settle();
  if (traced && !sim) {
    out.count_window = counters();
    out.count_window -= before;
    out.count_window_items = out.items;
  }
  tracker_.trace_upcalls = false;
  return out;
}

Counters& Counters::operator+=(const Counters& other) {
  envelopes += other.envelopes;
  envelope_bytes += other.envelope_bytes;
  lane_posts += other.lane_posts;
  evidence_records += other.evidence_records;
  wire_bytes += other.wire_bytes;
  retransmissions += other.retransmissions;
  acks += other.acks;
  epoll_wakeups += other.epoll_wakeups;
  executor_queue_peak = std::max(executor_queue_peak, other.executor_queue_peak);
  journal_bytes += other.journal_bytes;
  return *this;
}

Counters& Counters::operator-=(const Counters& earlier) {
  envelopes -= earlier.envelopes;
  envelope_bytes -= earlier.envelope_bytes;
  lane_posts -= earlier.lane_posts;
  evidence_records -= earlier.evidence_records;
  wire_bytes -= earlier.wire_bytes;
  retransmissions -= earlier.retransmissions;
  acks -= earlier.acks;
  epoll_wakeups -= earlier.epoll_wakeups;
  journal_bytes -= earlier.journal_bytes;
  return *this;
}

void PassResult::merge(PassResult&& part) {
  attempted += part.attempted;
  agreed += part.agreed;
  items += part.items;
  elapsed_s += part.elapsed_s;
  cpu_s += part.cpu_s;
  latency_ms.insert(latency_ms.end(), part.latency_ms.begin(),
                    part.latency_ms.end());
  rss_mb = std::max(rss_mb, part.rss_mb);
  spans.insert(spans.end(), part.spans.begin(), part.spans.end());
  count_window += part.count_window;
  count_window_items += part.count_window_items;
  problems.insert(problems.end(), part.problems.begin(), part.problems.end());
}

Counters Bench::counters() {
  Counters c;
  for (const std::string& name : names_) {
    core::Coordinator& coord = fed_->coordinator(name);
    const auto protocol = coord.protocol_stats();
    c.envelopes += protocol.envelopes_sent;
    c.envelope_bytes += protocol.envelope_bytes_sent;
    c.lane_posts += coord.router_stats().lane_posts;
    c.evidence_records += coord.evidence().size();
    const auto transport = fed_->transport(name).stats();
    c.wire_bytes += transport.bytes_sent;
    c.retransmissions += transport.retransmissions;
    c.acks += transport.acks_sent;
    // Loop counters are per reactor bundle: every transport reports the
    // same loop, so take them once rather than summing.
    c.epoll_wakeups = std::max(c.epoll_wakeups, transport.epoll_wakeups);
    c.executor_queue_peak =
        std::max(c.executor_queue_peak, transport.executor_queue_peak);
  }
  if (workload_.journal) {
    c.journal_bytes = dir_bytes(std::filesystem::path(workdir_) / "journals");
  }
  return c;
}

void Bench::check(std::vector<std::string>& problems) {
  fed_->settle();
  auto fail = [&](const std::string& what) { problems.push_back(what); };

  // Every member holds the same last state and the same StateTuple.
  for (std::size_t j = 0; j < object_ids_.size(); ++j) {
    const core::Replica& ref = fed_->coordinator(names_[0]).replica(object_ids_[j]);
    const Bytes tuple = ref.agreed_tuple().encode();
    for (std::size_t p = 0; p < kParties; ++p) {
      const core::Replica& r = fed_->coordinator(names_[p]).replica(object_ids_[j]);
      if (r.agreed_tuple().encode() != tuple) {
        fail(names_[p] + " holds a different StateTuple for " +
             object_ids_[j].str());
      }
      if (r.agreed_state() != ref.agreed_state() ||
          registers_[p][j]->value != ref.agreed_state()) {
        fail(names_[p] + " holds a different state for " + object_ids_[j].str());
      }
    }
  }

  std::map<b2b::PartyId, b2b::crypto::RsaPublicKey> keys;
  for (const std::string& name : names_) {
    keys.emplace(b2b::PartyId{name}, fed_->keypair(name).public_key());
  }
  for (const std::string& name : names_) {
    core::Coordinator& coord = fed_->coordinator(name);
    if (coord.violations_detected() != 0) fail(name + " detected violations");
    if (!coord.evidence().verify_chain()) fail(name + " evidence chain broken");
    if (fed_->transport(name).stats().frames_rejected_auth != 0) {
      fail(name + " rejected frames on authentication");
    }
    if (coord.deals().stats().aborted != 0) fail(name + " aborted deals");
    if (workload_.batch > 1) {
      const auto report = core::Arbiter::verify_anchored_spans(
          coord.evidence(), keys.at(b2b::PartyId{name}));
      if (!report.chain_intact || !report.all_anchors_valid ||
          report.anchors_valid == 0) {
        fail(name + " anchored evidence does not verify");
      }
    }
  }

  // The last agreed run on every object verifies from every party's
  // message store with nothing but public keys.
  core::Arbiter arbiter{fed_->make_verifier()};
  if (workload_.deal) {
    if (deal_handles_.empty()) return fail("no deal was agreed");
    const std::string& deal_id = deal_handles_.back()->run_label;
    auto decision = fed_->coordinator(names_[0]).deals().decision_of(deal_id);
    if (!decision) return fail("no decision recorded for deal " + deal_id);
    for (const core::DealLeg& leg : decision->decision.legs) {
      for (const std::string& name : names_) {
        auto report = arbiter.arbitrate_deal(
            fed_->coordinator(name).messages(), leg.proposed.label(), keys);
        if (!report.committed || report.equivocation || !report.blamed.empty()) {
          fail(name + ": deal leg does not arbitrate as committed: " +
               report.ruling);
        }
      }
    }
  } else if (workload_.batch == 1) {
    for (std::size_t j = 0; j < object_ids_.size(); ++j) {
      std::vector<b2b::PartyId> recipients;
      for (std::size_t p = 0; p < kParties; ++p) {
        if (p != j % kParties) recipients.push_back(b2b::PartyId{names_[p]});
      }
      for (const std::string& name : names_) {
        auto report = arbiter.arbitrate(fed_->coordinator(name).messages(),
                                        last_labels_[j], &recipients);
        if (!report.verdict.agreed) {
          fail(name + ": last run on " + object_ids_[j].str() +
               " does not arbitrate as agreed: " + report.ruling);
        }
      }
    }
  }
}

}  // namespace perfbench
