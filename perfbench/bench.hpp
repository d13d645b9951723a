// Workload harness of the repository benchmark.
//
// Builds a 3-organisation Federation for one named workload, drives a
// closed loop of agreed state changes through the public Coordinator /
// Federation API, and times every operation from the submitting call to
// the last member's install, as the benchmark-owned register objects see
// it through their upcalls. Everything here sits outside src/: layers are
// measured by timing calls into them and reading their public counters.
#pragma once

#include <time.h>

#include <chrono>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "b2b/federation.hpp"

namespace perfbench {

using b2b::Bytes;
using b2b::BytesView;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The kernel leaves out time the thread
/// was preempted and, with paravirtual steal accounting, time the
/// hypervisor stole from its vCPU.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The clock a workload's timings are read on. The sim delivers inline,
/// so a sim workload runs every operation, set-up included, on the
/// benchmark's one thread and never waits: its times are that thread's
/// CPU time, which is what the operation costs with the time other
/// tenants took from the guest left out. The reactor's threads wait on
/// sockets and disks, so its times are wall time.
enum class Clock { kWall, kThreadCpu };

inline std::int64_t read_clock(Clock clock) {
  return clock == Clock::kThreadCpu ? thread_cpu_ns() : now_ns();
}

/// One named workload (README.md says why each exists).
struct Workload {
  std::string name;
  b2b::core::RuntimeKind runtime = b2b::core::RuntimeKind::kSim;
  std::size_t objects = 1;      // register objects; one caller each
  std::size_t batch = 1;        // K overwrites per run (propagate_batch if > 1)
  bool deal = false;            // one op = a deal with one leg per object
  std::size_t state_bytes = 1024;
  bool journal = false;         // journal on, with fsync
  bool wire_auth = false;
  std::size_t reactor_workers = 4;
  /// peak_rss_mb is read once this many items are agreed, so it prices a
  /// fixed amount of history whatever the throughput.
  std::uint64_t rss_items = 0;

  /// Agreed state changes one operation contributes.
  std::size_t items_per_op() const { return deal ? objects : batch; }
  /// Operations in flight at once.
  std::size_t in_flight() const { return deal ? 1 : objects; }
  Clock clock() const {
    return runtime == b2b::core::RuntimeKind::kSim ? Clock::kThreadCpu
                                                   : Clock::kWall;
  }
};

/// Looks up a workload by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// A span of the traced pass, on the workload's clock. All spans of one
/// operation share trace_id; the operation's own span has parent 0 and
/// every other span of the operation has the operation's span as parent.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-object progress seen through the register upcalls. Timestamps, on
/// the workload's clock, belong to the operation currently in flight on
/// the object.
struct ObjectTrack {
  std::uint64_t installs = 0;  // kStateInstalled events, all members
  std::uint64_t bad_events = 0;  // vetoes and violations, all members
  std::int64_t first_validate_ns = 0;  // earliest responder validation
  std::int64_t agreed_ns = 0;          // proposer's last kStateAgreed
  std::int64_t installed_ns = 0;       // last member install
  std::vector<Span> upcalls;           // validate/apply spans (traced pass)
};

/// Shared by every register of a federation; guards all ObjectTracks.
struct Tracker {
  std::mutex mutex;
  std::condition_variable changed;
  std::vector<ObjectTrack> objects;
  std::atomic<bool> trace_upcalls{false};
  Clock clock = Clock::kWall;  // set before the federation is built

  std::int64_t now() const { return read_clock(clock); }
};

/// Benchmark-owned register with accept-all validation.
class BenchRegister : public b2b::core::B2BObject {
 public:
  BenchRegister(Tracker& tracker, std::size_t object_index)
      : tracker_(tracker), index_(object_index) {}

  Bytes value;

  Bytes get_state() const override { return value; }
  void apply_state(BytesView state) override;
  b2b::core::Decision validate_state(
      BytesView proposed, const b2b::core::ValidationContext& ctx) override;
  void coord_callback(const b2b::core::CoordEvent& event) override;

 private:
  Tracker& tracker_;
  std::size_t index_;
};

/// Summed public counters of every party (and transport) of a federation.
struct Counters {
  std::uint64_t envelopes = 0;
  std::uint64_t envelope_bytes = 0;
  std::uint64_t lane_posts = 0;
  std::uint64_t evidence_records = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks = 0;
  std::uint64_t epoll_wakeups = 0;        // per reactor bundle
  std::uint64_t executor_queue_peak = 0;  // per reactor bundle
  std::uint64_t journal_bytes = 0;

  /// Adds `other`'s counts (`executor_queue_peak`: the larger peak).
  Counters& operator+=(const Counters& other);
  /// Subtracts an earlier reading (`executor_queue_peak` is kept).
  Counters& operator-=(const Counters& earlier);
};

/// Result of one timed pass.
struct PassResult {
  std::uint64_t attempted = 0;  // operations submitted
  std::uint64_t agreed = 0;     // operations agreed, installed everywhere
                                // and holding the proposed bytes
  std::uint64_t items = 0;      // agreed state changes
  double elapsed_s = 0;         // on the workload's clock
  double cpu_s = 0;             // process user+sys CPU over the pass
  std::vector<double> latency_ms;  // one per agreed operation
  double rss_mb = 0;            // peak RSS once Workload::rss_items agreed
  // Traced passes only.
  std::vector<Span> spans;
  Counters count_window;        // counter deltas over the federation's
                                // first kCountWindowOps traced operations
                                // (sim) or over the whole pass (reactor)
  std::uint64_t count_window_items = 0;
  std::vector<std::string> problems;

  /// Adds a later pass of the same kind on the same federation.
  void merge(PassResult&& part);
};

/// A federation running one workload, its registers, and the op loop.
class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed, std::string workdir);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Warm-up: one agreed operation per object, off the clock.
  void warm_up(std::vector<std::string>& problems);

  /// Closed loop for `seconds`. With `read_rss`, extended until
  /// Workload::rss_items items are agreed, to read peak RSS there. With
  /// `traced`, records spans and takes the per-layer counter window; the
  /// first traced pass on the sim is extended to kCountWindowOps
  /// operations.
  PassResult run(double seconds, bool traced, bool read_rss);

  /// Correctness gate over everything this federation has done.
  void check(std::vector<std::string>& problems);

  Counters counters();

  b2b::core::Federation& fed() { return *fed_; }
  const Workload& workload() const { return workload_; }
  const std::vector<std::string>& names() const { return names_; }
  /// The label of the last run (or deal) agreed on each object.
  const std::vector<std::string>& last_labels() const { return last_labels_; }
  /// A state shaped like the workload's (deterministic in the seed).
  Bytes sample_state(std::uint64_t n);

 private:
  struct Op;
  std::unique_ptr<Op> submit(std::size_t slot);
  bool op_done(const Op& op);
  void finish(Op& op, bool traced, PassResult& out);

  Workload workload_;
  std::uint64_t seed_;
  std::string workdir_;
  std::vector<std::string> names_;
  std::vector<b2b::ObjectId> object_ids_;
  Tracker tracker_;
  // registers_[party][object]; declared before fed_ so the federation
  // (and its runtime threads) is destroyed first.
  std::vector<std::vector<std::unique_ptr<BenchRegister>>> registers_;
  std::unique_ptr<b2b::core::Federation> fed_;
  std::vector<Bytes> state_pool_;
  std::uint64_t next_state_ = 0;
  std::uint64_t next_trace_id_ = 1;
  bool count_window_taken_ = false;  // sim: the first traced pass took it
  std::vector<std::string> last_labels_;
  std::vector<b2b::core::RunHandle> deal_handles_;
};

double process_cpu_s();
double peak_rss_mb();

}  // namespace perfbench
