#include "serve/robustness_monitor.h"

#include <utility>

#include "common/contract.h"
#include "common/log.h"
#include "tensor/ops.h"

namespace satd::serve {

RobustnessMonitor::RobustnessMonitor(ModelRegistry& registry,
                                     std::string model_name,
                                     MonitorConfig config)
    : registry_(registry),
      model_name_(std::move(model_name)),
      config_(config),
      bim_(config.eps, config.iterations) {
  SATD_EXPECT(config.sample_period > 0, "sample_period must be positive");
  SATD_EXPECT(config.max_pending > 0, "max_pending must be positive");
  SATD_EXPECT(config.window > 0, "window must be positive");
  SATD_EXPECT(config.collapse_fraction > 0.0f &&
                  config.collapse_fraction < 1.0f,
              "collapse_fraction must be in (0, 1)");
}

RobustnessMonitor::~RobustnessMonitor() { stop(); }

void RobustnessMonitor::observe(const Tensor& image, std::size_t predicted) {
  const std::uint64_t n = observed_.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % config_.sample_period != 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.size() >= config_.max_pending) {
      ++dropped_;
      return;
    }
    ++sampled_;
    pending_.push_back(Sample{image, predicted});
  }
  work_.notify_one();
}

bool RobustnessMonitor::step() {
  Sample sample;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return false;
    sample = std::move(pending_.front());
    pending_.pop_front();
  }
  probe(sample);
  return true;
}

void RobustnessMonitor::probe(const Sample& sample) {
  SnapshotPtr snapshot = registry_.current(model_name_);
  if (!snapshot) return;  // nothing published; skip quietly
  if (!replica_ || replica_version_ != snapshot->version) {
    replica_ = ModelRegistry::instantiate(*snapshot);
    replica_version_ = snapshot->version;
  }

  // Stage the single image as a batch of one and attack the model's own
  // prediction: survived == the prediction is stable inside the eps-ball.
  std::vector<std::size_t> batch_dims;
  batch_dims.push_back(1);
  for (std::size_t d : sample.image.shape().dims()) batch_dims.push_back(d);
  batch_.ensure_shape(Shape(batch_dims));
  std::copy(sample.image.raw(), sample.image.raw() + sample.image.numel(),
            batch_.raw());
  const std::size_t labels[1] = {sample.predicted};
  bim_.perturb_into(*replica_, batch_, labels, adv_);
  replica_->forward_into(adv_, logits_, /*training=*/false);
  ops::argmax_rows_into(logits_, preds_);
  const bool survived = preds_[0] == sample.predicted;

  bool alarm_fired = false;
  MonitorReport at_alarm;
  std::function<void(const MonitorReport&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++probed_;
    outcomes_.push_back(survived);
    while (outcomes_.size() > config_.window) outcomes_.pop_front();
    std::size_t ok = 0;
    for (bool b : outcomes_) ok += b ? 1 : 0;
    const float fraction =
        static_cast<float>(ok) / static_cast<float>(outcomes_.size());
    if (fraction > best_) best_ = fraction;
    // Arm only once the window is representative and the baseline has been
    // reached; then a collapse below the fraction of best trips an alarm.
    if (outcomes_.size() >= config_.window && best_ >= config_.min_baseline &&
        fraction < config_.collapse_fraction * best_) {
      ++alarms_;
      alarm_fired = true;
      at_alarm = report_locked();
      cb = alarm_cb_;
      log::warn() << "serve monitor: robust fraction " << fraction
                  << " collapsed below "
                  << config_.collapse_fraction * best_ << " (best " << best_
                  << ") for model '" << model_name_ << "' v"
                  << replica_version_;
    }
  }
  // The callback runs outside the monitor lock so it may freely query
  // report()/alarmed() (the shard router's rollback trigger does).
  if (alarm_fired && cb) cb(at_alarm);
}

void RobustnessMonitor::start() {
  if (started_) return;
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
  }
  worker_ = std::thread([this] { run(); });
}

void RobustnessMonitor::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  if (worker_.joinable()) worker_.join();
  started_ = false;
}

void RobustnessMonitor::run() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
    }
    step();
  }
}

MonitorReport RobustnessMonitor::report_locked() const {
  MonitorReport r;
  r.observed = observed_.load(std::memory_order_relaxed);
  r.sampled = sampled_;
  r.dropped = dropped_;
  r.probed = probed_;
  if (!outcomes_.empty()) {
    std::size_t ok = 0;
    for (bool b : outcomes_) ok += b ? 1 : 0;
    r.robust_fraction =
        static_cast<float>(ok) / static_cast<float>(outcomes_.size());
  }
  r.best_fraction = best_;
  r.alarms = alarms_;
  return r;
}

MonitorReport RobustnessMonitor::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_locked();
}

bool RobustnessMonitor::alarmed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alarms_ > 0;
}

void RobustnessMonitor::set_alarm_callback(
    std::function<void(const MonitorReport&)> cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  alarm_cb_ = std::move(cb);
}

void RobustnessMonitor::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  outcomes_.clear();
  best_ = -1.0f;
  alarms_ = 0;
}

}  // namespace satd::serve
