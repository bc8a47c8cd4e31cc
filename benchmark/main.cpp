// satd_bench: one workload per process.
//
//   satd_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--smoke]
//
// Prints every gate, then one JSON object as the last line of stdout:
// "correct", "attempted", "failed", "metrics" (the end-to-end metrics with
// --trace 0, the per-layer ones the workload runs with --trace 1, as name:
// value), "gates", "extra" and "host". benchmark/run.py adds the units and
// writes the results file. Exits 1 when a correctness gate fails, 2 on a
// usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/log.h"
#include "common/thread_pool.h"
#include "report.h"
#include "workloads.h"

using namespace satd;
using namespace satd::benchmark;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "satd_bench: %s\nusage: satd_bench --workload "
               "<train_single_step|train_iterative|serve_inproc|serve_socket> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "satd_bench: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value("--workload");
      have_workload = true;
    } else if (arg == "--seed") {
      const char* v = value("--seed");
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      const char* v = value("--seconds");
      opt.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds must be a positive number");
      }
    } else if (arg == "--trace") {
      const std::string v = value("--trace");
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  log::set_level(log::Level::kWarn);
  const bool training = opt.workload.rfind("train_", 0) == 0;
  // Thread budget: training runs the compute pool on up to 4 threads;
  // serving keeps it at 1 so the generator, the 2 shard workers and the
  // front end (4 threads) own the cores.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool::set_global_threads(training ? std::min<std::size_t>(4, hw) : 1);

  Report report;
  try {
    if (training) {
      run_train(opt, report);
    } else if (opt.workload == "serve_inproc" ||
               opt.workload == "serve_socket") {
      run_serve(opt, report);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "satd_bench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
