// The four workloads. Each runs in its own process (so peak RSS and set-up
// time belong to it), fills a Report and records its correctness gates.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace satd::benchmark {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< serving: total length of the three phases
  bool trace = false;     ///< per-layer run (untraced reference + traced)
  bool smoke = false;     ///< 1 epoch, 1 s phases, no accuracy gates
};

/// train_single_step (FGSM-Adv + Proposed) or train_iterative (BIM(10)-Adv).
void run_train(const Options& options, Report& report);

/// serve_inproc or serve_socket.
void run_serve(const Options& options, Report& report);

}  // namespace satd::benchmark
