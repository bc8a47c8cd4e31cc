// Online load and cost models for SLO-aware adaptive batching.
//
// A window of fixed length waits out max_wait under light load for
// arrivals that cannot come, so batching would *lower* throughput and
// add latency. The batcher instead reasons about whether waiting is
// predicted to raise goodput, which needs two live estimates:
//
//   ArrivalEstimator     — EWMA of the inter-arrival gap, fed on every
//                          submit. expected_wait() additionally ages the
//                          estimate against the silence since the last
//                          arrival, so a stalled stream (closed-loop
//                          clients all blocked on us) stops promising
//                          imminent arrivals.
//   ServiceTimeEstimator — per-batch-size EWMA of measured batch service
//                          seconds, tagged with the model version that
//                          produced it and reset wholesale on hot swap
//                          (a new checkpoint has a new cost curve).
//                          Unobserved sizes are interpolated between
//                          observed neighbours, so the model captures the
//                          *measured* sublinearity of batching instead of
//                          assuming one.
//
// Both are deterministic functions of their observation sequence (fixed
// EWMA alpha, no randomness, no wall-clock reads of their own), which is
// what lets tests/serve drive the whole adaptive policy exactly on a
// FakeClock. Each estimator carries its own mutex; they are leaves in the
// lock order (they never call back into queue or batcher).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace satd::serve {

/// EWMA inter-arrival gap tracker (see file comment).
class ArrivalEstimator {
 public:
  explicit ArrivalEstimator(double alpha = 0.2);

  /// Records one arrival at clock time `now` (seconds). Fed on every
  /// submit — rejected requests are still offered load.
  void observe_arrival(double now);

  /// EWMA inter-arrival gap in seconds; +inf until two arrivals have
  /// been seen.
  double expected_gap() const;

  /// Expected wait for the NEXT arrival as seen at `now`:
  /// max(expected_gap, silence since the last arrival). The max() is the
  /// staleness guard — once the stream has been quiet for longer than the
  /// historical gap, the gap estimate is evidence about the past, not the
  /// future, and the predicted wait must grow with the silence.
  double expected_wait(double now) const;

  void reset();

 private:
  mutable std::mutex mutex_;
  double alpha_;
  double gap_ = 0.0;
  bool has_gap_ = false;
  double last_ = 0.0;
  bool has_last_ = false;
};

/// Per-batch-size EWMA service-time model, version-tagged (see file
/// comment). Sizes are 1..max_batch; observations outside clamp.
class ServiceTimeEstimator {
 public:
  explicit ServiceTimeEstimator(std::size_t max_batch, double alpha = 0.2);

  /// Records one measured batch: `seconds` of service for `batch`
  /// requests computed by model `version`. A version change discards the
  /// previous model's curve first — service cost is a property of the
  /// checkpoint being served, not of the server.
  void observe(std::uint64_t version, std::size_t batch, double seconds);

  /// Predicted service seconds for a batch of `batch`. Exact EWMA for
  /// observed sizes; linear interpolation between the nearest observed
  /// neighbours otherwise (extrapolated by the top-two slope above the
  /// largest observed size, scaled linearly below the smallest). 0.0
  /// when nothing has been observed — "no model" reads as "do not
  /// speculate about waiting".
  double predict(std::size_t batch) const;

  /// Goodput-optimal target batch size for an arrival stream with the
  /// given expected inter-arrival `gap`: the smallest argmax over
  /// b in [1, max_batch] of b / ((b-1)*gap + predict(b)), restricted to
  /// windows (b-1)*gap that fit under `max_wait`. 1 when gap is not
  /// finite or no service data exists.
  std::size_t planned_batch(double gap, double max_wait) const;

  /// Expected admission-to-response delay under the current plan:
  /// expected window ((planned_batch-1)*gap, capped at max_wait) plus
  /// predicted service time for the planned batch. The queue uses this
  /// as its feasibility horizon.
  double expected_delay(double gap, double max_wait) const;

  /// Model version the current curve was measured on (0 = none yet).
  std::uint64_t version() const;

  /// Discards the curve and re-tags the estimator with `version`.
  void reset(std::uint64_t version);

  std::size_t max_batch() const { return ewma_.size() - 1; }

 private:
  double predict_locked(std::size_t batch) const;
  std::size_t planned_locked(double gap, double max_wait) const;

  mutable std::mutex mutex_;
  double alpha_;
  std::uint64_t version_ = 0;
  std::vector<double> ewma_;  ///< indexed by batch size, [0] unused
  std::vector<bool> seen_;
};

}  // namespace satd::serve
