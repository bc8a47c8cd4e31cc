// Online robustness drift monitor for the inference server.
//
// Adversarially trained models can lose robustness silently — the serving
// path only sees clean accuracy-free traffic, so nothing on the request
// path would notice. Mirroring core/sentinel's training-time watchdog,
// this monitor samples 1-in-N admitted requests, and on a SEPARATE
// low-priority worker runs a small BIM probe against a private replica of
// the published model: does the model's own prediction survive the
// perturbation? The rolling fraction of surviving probes is the serving
// analogue of probe robust accuracy; a collapse below
// collapse_fraction * best-seen raises an alarm, exactly like the
// sentinel's verdict.
//
// Ground truth does not exist at serve time, so the probe uses the
// *predicted* label as the attack target. That measures prediction
// stability under perturbation — the quantity that drifts when a
// hot-swapped model is less robust than its predecessor.
//
// Isolation guarantees:
//   - observe() (called on the serving path) only bumps a counter and,
//     for sampled requests, copies one image under a mutex. No model
//     work happens on the request path.
//   - Probes run on a replica instantiated privately from the registry;
//     serving replicas are never touched, so enabling the monitor cannot
//     change any response (pinned by tests/serve/monitor_test.cpp).
//   - The pending buffer is bounded: when the probe worker falls behind,
//     samples are dropped (and counted), never queued unboundedly.
//   - The probe worker blocks on a condition variable while nothing is
//     pending; observe() signals it for each sample it buffers, and
//     stop() to end it. An idle monitor costs no wakeups.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/bim.h"
#include "nn/sequential.h"
#include "serve/registry.h"

namespace satd::serve {

/// Monitor knobs. Defaults mirror SentinelConfig's conservative posture:
/// the alarm arms only once the rolling fraction has ever reached
/// min_baseline, and trips only on a fall below half the best seen.
struct MonitorConfig {
  std::size_t sample_period = 64;  ///< probe 1 in this many observations
  std::size_t max_pending = 32;    ///< bounded sample buffer
  float eps = 0.1f;                ///< probe attack budget
  std::size_t iterations = 3;      ///< BIM iterations per probe
  std::size_t window = 64;         ///< rolling window of probe outcomes
  float collapse_fraction = 0.5f;  ///< alarm when fraction < this * best
  float min_baseline = 0.2f;       ///< arm only after best >= this
};

/// Point-in-time monitor state.
struct MonitorReport {
  std::size_t observed = 0;   ///< requests seen by observe()
  std::size_t sampled = 0;    ///< accepted into the pending buffer
  std::size_t dropped = 0;    ///< sampled but buffer was full
  std::size_t probed = 0;     ///< probes actually executed
  float robust_fraction = -1.0f;  ///< rolling window; -1 before any probe
  float best_fraction = -1.0f;    ///< best rolling fraction seen
  std::size_t alarms = 0;     ///< collapse alarms raised
};

/// Sampling BIM-probe drift monitor (see file comment).
class RobustnessMonitor {
 public:
  RobustnessMonitor(ModelRegistry& registry, std::string model_name,
                    MonitorConfig config);
  ~RobustnessMonitor();

  RobustnessMonitor(const RobustnessMonitor&) = delete;
  RobustnessMonitor& operator=(const RobustnessMonitor&) = delete;

  /// Serving-path hook: cheap counter bump; copies the image into the
  /// pending buffer for every sample_period-th call.
  void observe(const Tensor& image, std::size_t predicted);

  /// Processes one pending sample (refreshing the probe replica if the
  /// registry moved). Returns false when nothing was pending. Exposed so
  /// tests drive the probe loop deterministically without the thread.
  bool step();

  /// Spawns the low-priority probe worker. Idempotent.
  void start();

  /// Stops and joins the worker (pending samples may remain unprobed).
  void stop();

  MonitorReport report() const;

  /// Latched alarm state: true once any collapse alarm has fired (and
  /// until reset()). The programmatic twin of the warn-log/counter — the
  /// shard router's rollback decision reads this, it does not grep logs.
  bool alarmed() const;

  /// Hook invoked (from the probe thread, outside the monitor lock) each
  /// time a collapse alarm fires, with the report at that instant.
  /// Replaces any previous hook; pass nullptr to clear. The callback
  /// must not call back into stop() (it runs on the worker being
  /// stopped); report()/alarmed()/reset() are safe.
  void set_alarm_callback(std::function<void(const MonitorReport&)> cb);

  /// Clears the rolling window, best-seen baseline, latched alarms and
  /// pending samples — a fresh observation window. The router calls this
  /// at every canary publish/rollback so verdicts about one version
  /// never leak into the next. Cumulative observed/sampled/probed
  /// counters are kept (they are telemetry, not state).
  void reset();

 private:
  struct Sample {
    Tensor image;
    std::size_t predicted;
  };

  void run();
  void probe(const Sample& sample);
  MonitorReport report_locked() const;  // caller holds mutex_

  ModelRegistry& registry_;
  std::string model_name_;
  MonitorConfig config_;

  std::atomic<std::uint64_t> observed_{0};
  std::thread worker_;
  bool started_ = false;

  mutable std::mutex mutex_;              // guards everything below
  std::condition_variable work_;          // a sample is pending, or stop
  bool stop_ = false;
  std::deque<Sample> pending_;
  std::size_t sampled_ = 0;
  std::size_t dropped_ = 0;
  std::size_t probed_ = 0;
  std::deque<bool> outcomes_;             // rolling window
  float best_ = -1.0f;
  std::size_t alarms_ = 0;
  std::function<void(const MonitorReport&)> alarm_cb_;

  // Probe-thread-only state (never touched by observe()).
  std::optional<nn::Sequential> replica_;
  std::uint64_t replica_version_ = 0;
  attack::Bim bim_;
  Tensor batch_, adv_, logits_;
  std::vector<std::size_t> preds_;
};

}  // namespace satd::serve
