// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE] [--setup-only]
//
// --trace 0: one untraced timed pass; prints the end-to-end metrics.
// --trace 1: traced and untraced windows alternating on one federation
//            for S seconds, then the layer probes; prints the per-layer
//            metrics and the tracing overhead.
// --setup-only: set up (federation build, key generation, bootstrap,
//            warm-up) and print only the set-up time.
//
// Every pass ends in the correctness gate. The last line of stdout is one
// JSON object; the exit code is non-zero when any operation failed or the
// gate found a problem. perfbench/run.py builds and runs this.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cpu_rotation.hpp"
#include "bench.hpp"
#include "probes.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--workdir") args.workdir = value;
      else if (flag == "--trace-out") args.trace_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (!find_workload(args.workload)) usage("unknown workload '" + args.workload + "'");
  if (args.workdir.empty()) usage("--workdir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

/// Machine-speed diagnostic: a fixed chain of 64x64->128-bit multiplies,
/// the operation bigint arithmetic spends its time in, using no
/// repository code. Printed beside the metrics, never used to rescale
/// them.
double machine_loop_ms() {
  const std::int64_t start = now_ns();
  unsigned __int128 acc = 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 10'000'000; ++i) {
    acc = acc * x + (acc >> 64);
    x ^= static_cast<std::uint64_t>(acc);
  }
  volatile std::uint64_t sink = static_cast<std::uint64_t>(acc);
  (void)sink;
  return (now_ns() - start) / 1e6;
}

std::string number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  std::size_t rank = static_cast<std::size_t>(q * v.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  void absorb(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.attempted - pass.agreed;
    problems.insert(problems.end(), pass.problems.begin(), pass.problems.end());
  }

  /// Human-readable lines, then the JSON object as the last line.
  int print(const std::string& workload) const {
    const bool correct = problems.empty() && failed == 0;
    for (const std::string& p : problems) {
      std::printf("GATE FAIL [%s]: %s\n", workload.c_str(), p.c_str());
    }
    for (const Metric& m : metrics) {
      std::printf("%-30s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"trace\": " << s.trace_id << ", \"span\": " << s.span_id
        << ", \"parent\": " << s.parent_id << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

/// Per-operation medians of the traced spans (summed per operation first,
/// so an operation with several upcalls of one kind counts once).
std::map<std::string, std::vector<double>> span_us_by_op(
    const std::vector<Span>& spans) {
  std::map<std::string, std::map<std::uint64_t, double>> per_op;
  for (const Span& s : spans) {
    per_op[s.name][s.trace_id] += (s.end_ns - s.start_ns) / 1e3;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, ops] : per_op) {
    for (const auto& [trace, us] : ops) out[name].push_back(us);
  }
  return out;
}

std::vector<double> upcall_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string(s.name) == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

const char* clock_name(Clock clock) {
  return clock == Clock::kThreadCpu ? "thread CPU" : "wall";
}

void print_pass(const char* label, const PassResult& pass, Clock clock) {
  std::printf("%s: %llu ops attempted, %llu agreed, %llu items in %.3f s %s\n",
              label, static_cast<unsigned long long>(pass.attempted),
              static_cast<unsigned long long>(pass.agreed),
              static_cast<unsigned long long>(pass.items), pass.elapsed_s,
              clock_name(clock));
}

/// Set-up starts at `t_start` on the workload's clock (`wall_start` on
/// the wall clock, printed beside it).
void run_untraced(const Args& args, const Workload& w, std::int64_t t_start,
                  std::int64_t wall_start, Report& report) {
  Bench bench(w, args.seed, args.workdir);
  bench.warm_up(report.problems);
  const double setup_s = (read_clock(w.clock()) - t_start) / 1e9;
  const std::string setup_note = clock_name(w.clock()) + std::string(
      "; wall ") + number((now_ns() - wall_start) / 1e9) + " s";
  if (args.setup_only) {
    report.add("setup_s", setup_s, "s", setup_note);
    return;
  }
  PassResult pass = bench.run(args.seconds, false, true);
  bench.check(report.problems);
  report.absorb(pass);
  print_pass("untraced pass", pass, w.clock());

  const std::string n = "n=" + std::to_string(pass.latency_ms.size());
  report.add("setup_s", setup_s, "s", setup_note);
  report.add("items_per_s", pass.items / pass.elapsed_s, "1/s",
             std::to_string(pass.items) + " items");
  report.add("op_p50_ms", quantile(pass.latency_ms, 0.50), "ms", n);
  report.add("op_p90_ms", quantile(pass.latency_ms, 0.90), "ms", n);
  report.add("cpu_ms_per_item", pass.items ? pass.cpu_s * 1e3 / pass.items : 0,
             "ms");
  report.add("peak_rss_mb", pass.rss_mb, "MB",
             "after the first " + std::to_string(w.rss_items) + " items");
  // Not part of the JSON metrics: p99 only with enough samples behind it,
  // and fail_ratio is carried by the "attempted"/"failed" fields.
  if (pass.latency_ms.size() >= 1000) {
    std::printf("op_p99_ms %.4f ms (%s)\n", quantile(pass.latency_ms, 0.99),
                n.c_str());
  } else {
    std::printf("op_p99_ms not reported: %s < 1000 operations\n", n.c_str());
  }
}

void run_traced(const Args& args, const Workload& w, Report& report) {
  // Traced and untraced windows alternate on one federation in the order
  // T U U T, so host drift and history growth fall on both alike; the
  // tracing overhead compares their throughputs.
  Bench bench(w, args.seed, args.workdir);
  bench.warm_up(report.problems);
  const int windows = 4 * std::max(1, static_cast<int>(args.seconds / 4));
  PassResult traced, untraced;
  for (int i = 0; i < windows; ++i) {
    const bool on = i % 4 == 0 || i % 4 == 3;
    (on ? traced : untraced)
        .merge(bench.run(args.seconds / windows, on, false));
  }
  report.absorb(untraced);
  print_pass("untraced windows", untraced, w.clock());
  std::vector<ProbeValue> probes =
      run_probes(bench, args.seed, args.workdir, report.problems);
  bench.check(report.problems);
  report.absorb(traced);
  print_pass("traced windows", traced, w.clock());
  write_spans(args.trace_out, traced.spans);

  auto items_per_s = [](const PassResult& p) {
    return p.elapsed_s > 0 ? p.items / p.elapsed_s : 0.0;
  };
  const double untraced_ips = items_per_s(untraced);
  const double traced_ips = items_per_s(traced);
  for (const ProbeValue& p : probes) report.add(p.name, p.value, p.unit);

  const Counters& c = traced.count_window;
  const double items = static_cast<double>(traced.count_window_items);
  auto per_item = [&](std::uint64_t v) { return items ? v / items : 0.0; };
  const std::string window = std::to_string(traced.count_window_items) + " items";
  report.add("store.evidence_records_per_item", per_item(c.evidence_records), "count", window);
  report.add("net.wire_bytes_per_item", per_item(c.wire_bytes), "bytes", window);
  report.add("net.acks_per_item", per_item(c.acks), "count", window);
  report.add("b2b.msgs_per_item", per_item(c.envelopes), "count", window);
  report.add("b2b.envelope_bytes_per_item", per_item(c.envelope_bytes), "bytes", window);
  // Only the reactor has a journal, lost frames, an event loop and shard
  // lanes; on the sim these counters stay 0, so they are not reported.
  if (w.runtime != b2b::core::RuntimeKind::kSim) {
    report.add("store.journal_bytes_per_item", per_item(c.journal_bytes), "bytes", window);
    report.add("net.retransmissions_per_item", per_item(c.retransmissions), "count", window);
    report.add("net.epoll_wakeups_per_item", per_item(c.epoll_wakeups), "count", window);
    report.add("net.executor_queue_peak", static_cast<double>(c.executor_queue_peak), "count");
    report.add("b2b.lane_posts_per_item", per_item(c.lane_posts), "count", window);
  }

  const auto by_op = span_us_by_op(traced.spans);
  auto median_of = [&](const char* name) {
    auto it = by_op.find(name);
    return it == by_op.end() ? 0.0 : quantile(it->second, 0.5);
  };
  const std::string ops = "n=" + std::to_string(traced.agreed) + " ops";
  report.add("b2b.submit_us", median_of("b2b.submit_us"), "us", ops);
  report.add("b2b.phase.propose_us", median_of("b2b.phase.propose_us"), "us", ops);
  report.add("b2b.phase.respond_us", median_of("b2b.phase.respond_us"), "us", ops);
  report.add("b2b.phase.decide_us", median_of("b2b.phase.decide_us"), "us", ops);
  const std::vector<double> validate = upcall_us(traced.spans, "apps.validate_us");
  const std::vector<double> apply = upcall_us(traced.spans, "apps.apply_us");
  report.add("apps.validate_us", mean(validate), "us",
             "n=" + std::to_string(validate.size()) + " upcalls");
  report.add("apps.apply_us", mean(apply), "us",
             "n=" + std::to_string(apply.size()) + " upcalls");
  report.add("trace.overhead_pct",
             untraced_ips > 0 ? (untraced_ips - traced_ips) / untraced_ips * 100 : 0,
             "%", "untraced " + number(untraced_ips) + " vs traced " +
                      number(traced_ips) + " items/s, " +
                      std::to_string(windows / 2) + " windows each");

  // How the traced medians account for the median operation.
  const double op_p50_us = median_of("op");
  const double accounted = median_of("b2b.submit_us") +
                           median_of("b2b.phase.propose_us") +
                           median_of("b2b.phase.respond_us") +
                           median_of("b2b.phase.decide_us");
  const double apps_us = median_of("apps.validate_us") + median_of("apps.apply_us");
  std::printf(
      "traced op p50 %.1f us = submit+propose+respond+decide %.1f us "
      "(%.1f%%); benchmark upcalls %.1f us/op (%.2f%%)\n",
      op_p50_us, accounted, op_p50_us ? accounted / op_p50_us * 100 : 0,
      apps_us, op_p50_us ? apps_us / op_p50_us * 100 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& w = *find_workload(args.workload);
  // The sim workloads run on one thread, which is rotated over the CPUs;
  // the reactor's threads are left to the scheduler.
  std::optional<CpuRotation> rotation;
  if (w.runtime == b2b::core::RuntimeKind::kSim) {
    rotation.emplace(std::chrono::milliseconds(5));
  }
  const double speed_start = args.setup_only ? 0 : machine_loop_ms();
  const std::int64_t t_start = read_clock(w.clock());
  const std::int64_t wall_start = now_ns();
  std::filesystem::create_directories(args.workdir);

  Report report;
  try {
    if (args.trace) {
      run_traced(args, w, report);
    } else {
      run_untraced(args, w, t_start, wall_start, report);
    }
  } catch (const std::exception& e) {
    report.problems.push_back(std::string("exception: ") + e.what());
  }
  if (!args.setup_only) {
    const double speed_end = machine_loop_ms();
    std::printf("machine-speed loop: %.2f ms at start, %.2f ms at end "
                "(diagnostic only)\n", speed_start, speed_end);
  }
  std::printf("workload %s seed %llu: %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  return report.print(w.name);
}
