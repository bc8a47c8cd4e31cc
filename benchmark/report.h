// Result collection for one benchmark run: the metrics a workload measured,
// its correctness gates, and the one-line JSON result that run.py completes
// (units and the metrics this workload does not run come from
// BENCHMARK.json, the only metric catalogue) and writes to the results file
// compare.py reads.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace satd::benchmark {

/// Steady-clock seconds; the same time base as SystemClock::now().
inline double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Windows a run's measured span is cut into for robust statistics: enough
/// that a busy stretch of a shared host leaves some windows undisturbed.
inline constexpr std::size_t kWindows = 16;

/// Splits samples (in time order) into kWindows consecutive windows of
/// equal count and returns each window's q-percentile. Other tenants of a
/// shared host stall a run for up to seconds at a stretch; a stall moves a
/// few windows, while a change to the program moves every window alike.
std::vector<double> window_percentiles(const std::vector<double>& in_order,
                                       double q);

/// The median of the windows' q-percentiles.
inline double windowed_percentile(const std::vector<double>& in_order,
                                  double q) {
  return median(window_percentiles(in_order, q));
}

/// The lowest of the windows' q-percentiles: the least-disturbed stretch of
/// the run. Other tenants only ever lengthen a time, so this is the
/// statistic closest to the program's own, and the steadiest between runs.
double fastest_window_percentile(const std::vector<double>& in_order,
                                 double q);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Everything one run measured and checked.
class Report {
 public:
  /// Records a metric BENCHMARK.json declares: an end-to-end metric with
  /// --trace 0, a per-layer one with --trace 1.
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Records a value outside BENCHMARK.json; it goes to the results file
  /// only.
  void note(const std::string& name, double value) { extra_[name] = value; }

  /// Records one correctness gate.
  void gate(const std::string& name, bool pass, const std::string& detail);

  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;

  /// Prints every gate, then as the last line of stdout one JSON object:
  /// correct, attempted, failed, metrics (name: value), gates, extra and
  /// host.
  void print() const;

 private:
  struct Gate {
    std::string name;
    bool pass = false;
    std::string detail;
  };

  std::map<std::string, double> values_;
  std::map<std::string, double> extra_;
  std::vector<Gate> gates_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace satd::benchmark
