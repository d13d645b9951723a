// Layer probes of the traced pass: time the public functions of the
// crypto, wire and store layers on inputs shaped like the workload's,
// with the workload's own keys. They run after the traced pass's timed
// loop, so they never perturb an end-to-end number.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ProbeValue {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// Appends to `problems` when a probed function returns a wrong result.
std::vector<ProbeValue> run_probes(Bench& bench, std::uint64_t seed,
                                   const std::string& workdir,
                                   std::vector<std::string>& problems);

}  // namespace perfbench
