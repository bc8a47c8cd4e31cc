#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "runtime/rusage.h"
#include "tensor/kernel/microkernel.h"

namespace satd::benchmark {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[rank == 0 ? 0 : std::min(values.size(), rank) - 1];
}

std::vector<double> window_percentiles(const std::vector<double>& in_order,
                                       double q) {
  std::vector<double> per_window;
  const std::size_t n = in_order.size();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(w * n / kWindows);
    const auto last = in_order.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / kWindows);
    if (first != last) per_window.push_back(percentile({first, last}, q));
  }
  return per_window;
}

double fastest_window_percentile(const std::vector<double>& in_order,
                                 double q) {
  const std::vector<double> w = window_percentiles(in_order, q);
  return w.empty() ? 0.0 : *std::min_element(w.begin(), w.end());
}

double peak_rss_mb() {
  return static_cast<double>(runtime::read_proc_peak_rss_kb(::getpid())) /
         1024.0;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Full-precision JSON number (NaN/Inf are not JSON; they become null).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": " + num(value);
  }
  return out + "}";
}

}  // namespace

void Report::gate(const std::string& name, bool pass,
                  const std::string& detail) {
  gates_.push_back({name, pass, detail});
}

bool Report::correct() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.pass; });
}

void Report::print() const {
  std::string gates;
  for (const Gate& g : gates_) {
    std::printf("gate %-28s %s  %s\n", g.name.c_str(),
                g.pass ? "pass" : "FAIL", g.detail.c_str());
    if (!gates.empty()) gates += ", ";
    gates += "{\"name\": " + json_string(g.name) +
             ", \"pass\": " + (g.pass ? "true" : "false") +
             ", \"detail\": " + json_string(g.detail) + "}";
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": " + json_object(values_);
  line += ", \"gates\": [" + gates + "]";
  line += ", \"extra\": " + json_object(extra_);
  line += ", \"host\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"gemm_kernel\": " + json_string(kernel::active_kernel().name) +
          "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace satd::benchmark
