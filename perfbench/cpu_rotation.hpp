// Moves one thread round-robin over the CPUs the process may run on.
//
// On a shared host each CPU's speed swings about 1.6x as other tenants
// load the hardware thread beside it, on scales from a fraction of a
// second to minutes. A single-threaded run that the scheduler leaves on
// one CPU inherits that CPU's luck: on the 4-vCPU development VM,
// items_per_s on single-1k spread 16% across runs. Moving the thread to
// the next CPU every few milliseconds makes each run, and each operation,
// sample every CPU alike.
//
// Only the thread that constructs the rotation is moved, whatever else
// the process runs, so the harness behaves the same however many threads
// the program under test starts. It is meant for the single-threaded sim
// workloads; threads created by the rotated thread inherit its current
// one-CPU affinity.
#pragma once

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  /// Rotates the calling thread to the next allowed CPU every `period`.
  explicit CpuRotation(std::chrono::milliseconds period)
      : period_(period), target_(static_cast<pid_t>(syscall(SYS_gettid))) {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }

  ~CpuRotation() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
    sched_setaffinity(target_, sizeof original_, &original_);
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t turn = 0;; ++turn) {
      if (wake_.wait_for(lock, period_, [this] { return stop_; })) return;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[turn % cpus_.size()], &one);
      sched_setaffinity(target_, sizeof one, &one);
    }
  }

  const std::chrono::milliseconds period_;
  const pid_t target_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  // last: started after everything it reads
};

}  // namespace perfbench
