#include "serve/microbatcher.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/contract.h"
#include "metrics/evaluator.h"
#include "nn/loss.h"

namespace satd::serve {

Microbatcher::Microbatcher(ModelRegistry& registry, std::string model_name,
                           RequestQueue& queue, ServerStats& stats,
                           Clock& clock, BatchPolicy policy,
                           RobustnessMonitor* monitor,
                           ArrivalEstimator* arrivals,
                           ServiceTimeEstimator* service)
    : registry_(registry),
      model_name_(std::move(model_name)),
      queue_(queue),
      stats_(stats),
      clock_(clock),
      policy_(policy),
      monitor_(monitor),
      arrivals_(arrivals),
      service_(service) {
  SATD_EXPECT(policy.max_batch > 0, "max_batch must be positive");
  SATD_EXPECT(policy.max_wait >= 0.0, "max_wait must be non-negative");
  SATD_EXPECT(policy.poll_interval > 0.0, "poll_interval must be positive");
}

bool Microbatcher::step() {
  staged_.clear();
  Request first;
  if (!queue_.pop(first)) return false;
  bool urgent = first.urgent;
  staged_.push_back(std::move(first));

  // Batching window: max_wait is only a hard cap — the window closes as
  // soon as waiting is no longer predicted to raise goodput
  // (keep_waiting), and an urgent request ends window forming outright.
  // Available requests are always taken (a non-blocking pop costs no
  // wall time). Each wait lasts until the next arrival, or one
  // poll_interval on the injected clock, so a FakeClock test steps
  // through the window in exact quanta.
  const double window_close = clock_.now() + policy_.max_wait;
  while (staged_.size() < policy_.max_batch && !urgent) {
    Request next;
    if (queue_.pop(next)) {
      urgent = next.urgent;
      staged_.push_back(std::move(next));
      continue;
    }
    const double now = clock_.now();
    if (now >= window_close || !keep_waiting(now, window_close)) break;
    if (!queue_.wait_for_work(now + policy_.poll_interval)) break;
  }

  serve_batch(staged_);
  staged_.clear();
  return true;
}

bool Microbatcher::keep_waiting(double now, double window_close) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!arrivals_ || !service_) return false;  // nothing to predict from
  const std::size_t b = staged_.size();
  const double sb = service_->predict(b);

  // Deadline pressure: if one more poll quantum plus the predicted
  // service time would bust a staged deadline, serve now — a late batch
  // helps nobody.
  double nearest = kInf;
  for (const Request& req : staged_) {
    if (req.deadline != 0.0) nearest = std::min(nearest, req.deadline);
  }
  if (nearest < kInf && now + policy_.poll_interval + sb >= nearest) {
    return false;
  }

  // Expected wait for the next arrival; aged by the silence since the
  // last one, so a stalled stream (e.g. closed-loop clients all blocked
  // on this very batch) talks itself out of waiting.
  const double w = arrivals_->expected_wait(now);
  if (!(w < kInf)) return false;              // no arrival data
  if (now + w > window_close) return false;   // predicted past the cap
  const double sb1 = service_->predict(b + 1);
  if (sb <= 0.0 || sb1 <= 0.0) return false;  // no service model yet
  // Goodput rule: wait only if (b+1)/(w + s(b+1)) beats b/s(b).
  return static_cast<double>(b + 1) * sb >
         static_cast<double>(b) * (w + sb1);
}

void Microbatcher::run() {
  // Serve while there is work, block while the queue is idle, and exit
  // once it is drained.
  while (step() || queue_.wait_for_work()) {
  }
}

void Microbatcher::refresh_replica() {
  SnapshotPtr snapshot = registry_.current(model_name_);
  if (!snapshot) {
    replica_.reset();
    qreplica_.reset();
    replica_version_ = 0;
    return;
  }
  if (policy_.quantized) {
    // The quantized snapshot is immutable and thread-safe: adopt the
    // shared object instead of instantiating a private replica.
    if (!qreplica_ || replica_version_ != snapshot->version) {
      qreplica_ = snapshot->quantized;
      replica_version_ = snapshot->version;
    }
    return;
  }
  if (!replica_ || replica_version_ != snapshot->version) {
    replica_ = ModelRegistry::instantiate(*snapshot);
    replica_version_ = snapshot->version;
  }
}

void Microbatcher::serve_batch(std::vector<Request>& batch) {
  // Expire requests whose deadline passed while queued; they must not
  // consume forward-pass work.
  const double now = clock_.now();
  std::vector<Request*> live;
  live.reserve(batch.size());
  for (Request& req : batch) {
    if (req.deadline != 0.0 && now > req.deadline) {
      stats_.record_error(ServeError::kDeadlineMiss);
      Response miss;
      miss.error = ServeError::kDeadlineMiss;
      miss.latency = now - req.submit_time;
      req.responder.respond(std::move(miss));
    } else {
      live.push_back(&req);
    }
  }
  if (live.empty()) return;

  // The replica is refreshed at the batch boundary only: every request in
  // this batch is answered by exactly one model version.
  refresh_replica();
  if (policy_.quantized ? !qreplica_ : !replica_) {
    for (Request* req : live) {
      stats_.record_error(ServeError::kNoModel);
      Response r;
      r.error = ServeError::kNoModel;
      r.latency = clock_.now() - req->submit_time;
      req->responder.respond(std::move(r));
    }
    return;
  }

  // Coalesce into [B, ...image dims]; all images must share one shape
  // (the server serves a single model).
  const std::size_t b = live.size();
  const Tensor& proto = live[0]->image;
  std::vector<std::size_t> dims;
  dims.reserve(proto.shape().rank() + 1);
  dims.push_back(b);
  for (std::size_t d : proto.shape().dims()) dims.push_back(d);
  batch_.ensure_shape(Shape(dims));
  const std::size_t example = proto.numel();
  for (std::size_t i = 0; i < b; ++i) {
    const Tensor& img = live[i]->image;
    SATD_EXPECT(img.numel() == example,
                "all images in a serving batch must share one shape");
    std::copy(img.raw(), img.raw() + example, batch_.raw() + i * example);
  }

  // The shared evaluation/serving inference path (metrics::predict_into
  // or its quantized twin): one inference-mode forward plus row argmaxes,
  // so a served prediction is bit-identical to what the evaluators would
  // report for this image under the same numerics mode.
  if (policy_.quantized) {
    metrics::predict_quantized_into(*qreplica_, batch_, b, logits_, preds_,
                                    qws_);
  } else {
    metrics::predict_into(*replica_, batch_, b, logits_, preds_);
  }
  nn::softmax_into(logits_, probs_);
  stats_.record_batch(b);

  const std::size_t classes = probs_.shape()[1];
  const double done = clock_.now();
  // Feed the service-time model: this batch of b cost (done - now)
  // seconds on replica_version_. A hot swap shows up as a version change
  // and resets the curve (a new checkpoint has a new cost curve).
  if (service_) service_->observe(replica_version_, b, done - now);
  for (std::size_t i = 0; i < b; ++i) {
    Request* req = live[i];
    Response r;
    r.predicted = preds_[i];
    r.probabilities.assign(probs_.raw() + i * classes,
                           probs_.raw() + (i + 1) * classes);
    r.model_version = replica_version_;
    r.batch_size = b;
    r.latency = done - req->submit_time;
    stats_.record_served(r.latency);
    if (monitor_) monitor_->observe(req->image, r.predicted);
    req->responder.respond(std::move(r));
  }
}

}  // namespace satd::serve
