// Dynamic micro-batching: coalesces single-image requests into one
// forward pass.
//
// On popping the first request a worker opens a batching window, keeps
// popping while requests are queued, then runs ONE workspace-based
// forward_into + softmax_into over the coalesced [B, C, H, W] tensor and
// scatters per-request probabilities/argmax back through each request's
// responder.
//
// The window is SLO-aware: max_wait is only a hard cap, and the window
// stays open only while waiting is *predicted to raise goodput*, from two
// live estimates (serve/estimator.h): the EWMA inter-arrival gap and a
// per-batch-size service-time model learned online per model version.
// With b requests staged and the queue empty, the window stays open only
// while
//
//     (b+1) * s(b)  >  b * (w + s(b+1))
//
// — i.e. serving b now at rate b/s(b) is predicted to be beaten by
// waiting the expected w seconds for one more and serving b+1 at rate
// (b+1)/(w + s(b+1)). The window also closes when the predicted next
// arrival lands past the max_wait cap, when no arrival or service-time
// data exists (never speculate about an unmeasured load or model; a
// Microbatcher built without estimators therefore never waits), when a
// staged deadline is one poll quantum + predicted service away from
// busting (deadline pressure), and the moment an URGENT request (queue
// priority lane) is staged — tight-deadline work preempts window forming
// outright.
//
// Numerics contract: the library's kernels compute each output row from
// its input row alone (independent-output decomposition), so a request's
// probabilities are bit-identical whether it was served in a batch of 1
// or coalesced with 31 strangers — pinned by tests/serve. That is what
// makes micro-batching safe to enable: the window changes batch
// *composition* and throughput, never answers.
//
// Waiting: an open window waits on the queue's condition variable for at
// most one poll_interval, so an arrival re-evaluates the rule at once; an
// idle worker blocks on the same variable until a request arrives or the
// queue drains. Time flows through the injected Clock, so a FakeClock
// drives the window/deadline state machine — every close decision reads
// only the clock and the deterministic estimators, and each timed wait is
// one recorded sleep — exactly in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "nn/sequential.h"
#include "serve/estimator.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/robustness_monitor.h"
#include "serve/stats.h"

namespace satd::serve {

/// Coalescing policy.
struct BatchPolicy {
  std::size_t max_batch = 8;      ///< hard batch-size cap
  double max_wait = 0.002;        ///< hard cap on an open window (seconds)
  double poll_interval = 0.0002;  ///< longest wait before re-evaluating
  /// Serve with the snapshot's int8 QuantizedModel instead of a float
  /// replica. The per-row activation quantization keeps the batch-of-1
  /// invariance, so micro-batching stays answer-preserving in this mode
  /// too; predictions may differ from the float path within the pinned
  /// quantization tolerance (tests/nn/quantized_test.cpp).
  bool quantized = false;
};

/// One serving worker's batching loop. Each worker owns a Microbatcher —
/// and through it a private model replica — so workers never share
/// mutable model state.
class Microbatcher {
 public:
  /// `monitor` may be null (monitoring disabled). `arrivals`/`service`
  /// may be null: the window then never waits. When present, every
  /// served batch feeds the service-time model (tagged with the replica
  /// version, so a hot swap resets the curve).
  Microbatcher(ModelRegistry& registry, std::string model_name,
               RequestQueue& queue, ServerStats& stats, Clock& clock,
               BatchPolicy policy, RobustnessMonitor* monitor = nullptr,
               ArrivalEstimator* arrivals = nullptr,
               ServiceTimeEstimator* service = nullptr);

  /// One batching cycle: pop the first request, hold the window, serve
  /// the coalesced batch. Returns false if the queue was empty (nothing
  /// was done). Exposed for deterministic single-threaded tests.
  bool step();

  /// Runs step() until the queue is drained (begin_drain + backlog
  /// empty), blocking on the queue while it is idle.
  void run();

  /// Version of the replica that served the last batch (0 = none yet).
  std::uint64_t replica_version() const { return replica_version_; }

 private:
  /// Window close decision with the queue momentarily empty and staged_
  /// holding the current batch; true = wait up to one more poll quantum
  /// (see file comment for the rule).
  bool keep_waiting(double now, double window_close) const;

  void refresh_replica();
  void serve_batch(std::vector<Request>& batch);

  ModelRegistry& registry_;
  std::string model_name_;
  RequestQueue& queue_;
  ServerStats& stats_;
  Clock& clock_;
  BatchPolicy policy_;
  RobustnessMonitor* monitor_;
  ArrivalEstimator* arrivals_;
  ServiceTimeEstimator* service_;

  std::optional<nn::Sequential> replica_;
  // Quantized mode: the snapshot's immutable QuantizedModel is shared
  // across workers (no per-worker instantiation); only the workspace is
  // worker-private.
  std::shared_ptr<const nn::QuantizedModel> qreplica_;
  nn::QuantizedWorkspace qws_;
  std::uint64_t replica_version_ = 0;

  // Reused across batches: the coalesced input, logits, probabilities
  // and argmax scratch (the steady state serves with no allocation
  // beyond per-response probability vectors).
  Tensor batch_, logits_, probs_;
  std::vector<std::size_t> preds_;
  std::vector<Request> staged_;
};

}  // namespace satd::serve
