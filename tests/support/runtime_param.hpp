// Support for running protocol suites over every runtime.
//
// A suite derives its fixture from RuntimeParamTest and instantiates with
// B2B_INSTANTIATE_RUNTIME_SUITE: every TEST_P then runs once on the
// deterministic simulator, once on real threads over the in-process
// fabric, and twice over real TCP sockets on localhost on the epoll
// reactor (one loop + bounded pool) — once with plain wire frames and
// once with wire v3 session authentication, every frame MAC'd as a
// deployment between organisations runs it — proving the protocol layer
// depends only on the abstract runtime seam (eventual once-only
// delivery), not on the discrete-event substrate, the threading model
// or the wire's authentication underneath.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "b2b/federation.hpp"

namespace b2b::test {

/// One leg of a runtime-parameterised suite: a runtime, and for the
/// socket stack whether wire v3 session authentication is on. The
/// runtime legs share RuntimeKind's numbering.
enum class RuntimeLeg {
  kSim = 0,
  kThreaded = 1,
  /// The reactor socket stack with Options::wire_auth on.
  kAuthTcp = 2,
  kReactor = 3,
};

inline core::RuntimeKind runtime_kind(RuntimeLeg leg) {
  switch (leg) {
    case RuntimeLeg::kSim:
      return core::RuntimeKind::kSim;
    case RuntimeLeg::kThreaded:
      return core::RuntimeKind::kThreaded;
    case RuntimeLeg::kAuthTcp:
    case RuntimeLeg::kReactor:
      return core::RuntimeKind::kReactor;
  }
  return core::RuntimeKind::kSim;
}

/// Options preset mapping the same logical deployment (seed, loss,
/// duplication) onto whichever runtime is under test.
inline core::Federation::Options runtime_options(core::RuntimeKind kind,
                                                 std::uint64_t seed = 1,
                                                 double drop = 0.0,
                                                 double dup = 0.0) {
  core::Federation::Options options;
  options.runtime = kind;
  options.seed = seed;
  if (kind == core::RuntimeKind::kSim) {
    options.faults.drop_probability = drop;
    options.faults.duplicate_probability = dup;
    if (drop > 0.0 || dup > 0.0) {
      options.faults.min_delay_micros = 500;
      options.faults.max_delay_micros = 20'000;
      options.reliable.retransmit_interval_micros = 40'000;
    }
  } else if (kind == core::RuntimeKind::kThreaded) {
    options.threaded_faults.drop_probability = drop;
    options.threaded_faults.duplicate_probability = dup;
  } else {
    options.reactor_faults.drop_probability = drop;
    options.reactor_faults.duplicate_probability = dup;
  }
  return options;
}

inline core::Federation::Options runtime_options(RuntimeLeg leg,
                                                 std::uint64_t seed = 1,
                                                 double drop = 0.0,
                                                 double dup = 0.0) {
  auto options = runtime_options(runtime_kind(leg), seed, drop, dup);
  options.wire_auth = leg == RuntimeLeg::kAuthTcp;
  return options;
}

/// Datagram-level fault counters of whichever fabric is active.
struct FabricStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
};

inline FabricStats fabric_stats(core::Federation& fed) {
  if (fed.runtime() == core::RuntimeKind::kSim) {
    const auto& stats = fed.network().stats();
    return {stats.datagrams_dropped, stats.datagrams_duplicated};
  }
  if (fed.runtime() == core::RuntimeKind::kThreaded) {
    const auto stats = fed.threaded_network().stats();
    return {stats.datagrams_dropped, stats.datagrams_duplicated};
  }
  const auto stats = fed.reactor_runtime().fabric_stats();
  return {stats.frames_dropped_injected, stats.frames_duplicated_injected};
}

/// Base fixture for suites instantiated over every runtime leg.
class RuntimeParamTest : public ::testing::TestWithParam<RuntimeLeg> {
 protected:
  core::Federation::Options options(std::uint64_t seed = 1, double drop = 0.0,
                                    double dup = 0.0) const {
    return runtime_options(GetParam(), seed, drop, dup);
  }
};

/// Test-name suffix of a leg; also keeps per-leg journal directories apart.
inline std::string runtime_suffix(RuntimeLeg leg) {
  switch (leg) {
    case RuntimeLeg::kSim:
      return "Sim";
    case RuntimeLeg::kThreaded:
      return "Threaded";
    case RuntimeLeg::kAuthTcp:
      return "Tcp";
    case RuntimeLeg::kReactor:
      return "Reactor";
  }
  return "Unknown";
}

}  // namespace b2b::test

#define B2B_INSTANTIATE_RUNTIME_SUITE(suite)                             \
  INSTANTIATE_TEST_SUITE_P(                                              \
      Runtimes, suite,                                                   \
      ::testing::Values(b2b::test::RuntimeLeg::kSim,                     \
                        b2b::test::RuntimeLeg::kThreaded,                \
                        b2b::test::RuntimeLeg::kAuthTcp,                 \
                        b2b::test::RuntimeLeg::kReactor),                \
      [](const ::testing::TestParamInfo<b2b::test::RuntimeLeg>& info) {  \
        return b2b::test::runtime_suffix(info.param);                    \
      })
