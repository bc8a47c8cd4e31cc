#include "trace.h"

#include <cctype>
#include <cmath>

#include "nn/zoo.h"
#include "report.h"

namespace satd::benchmark {

std::string layer_tag(std::size_t index, const nn::Layer& layer) {
  std::string tag = std::to_string(index) + "_";
  for (const char c : layer.name()) {
    if (c == '(') break;
    tag += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return tag;
}

double layer_macs(nn::Sequential& model, std::size_t index,
                  std::size_t batch) {
  Shape in = nn::zoo::input_shape();
  for (std::size_t i = 0; i < index; ++i) in = model.layer(i).output_shape(in);
  nn::Layer& layer = model.layer(index);
  const auto params = layer.parameters();
  if (params.empty()) return 0.0;
  // Conv2d and Dense both hold their weight first; every output position
  // of one output channel is a dot product over weight_numel / channels
  // inputs, so MACs per example = output spatial size * weight numel.
  const Shape out = layer.output_shape(in);
  const double spatial = static_cast<double>(out.numel() / out[0]);
  return static_cast<double>(batch) * spatial *
         static_cast<double>(params[0]->numel());
}

TrainTimeline::TrainTimeline(std::size_t layers)
    : span_s_(layers * 4, 0.0), examples_(layers * 4, 0) {}

void TrainTimeline::fit_begin(double t) {
  last_ = Last::kFitBegin;
  last_t_ = t;
}

void TrainTimeline::close_batch(double t) {
  const double tail = t - last_t_;
  // A timed batch ends with the optimizer step and zero_grad after the
  // last update backward; a batch with no layer spans (untimed, or a plain
  // model) is all "before the first layer call", i.e. batch preparation.
  if (timing_) (last_ == Last::kSpan ? optimizer_s_ : batch_prep_s_) += tail;
  epoch_attributed_ += tail;
  batch_s_.push_back(t - batch_start_);
  (timing_ ? timed_batch_s_ : untimed_batch_s_).push_back(t - batch_start_);
}

void TrainTimeline::batch_stamp(double t) {
  switch (last_) {
    case Last::kStamp:
    case Last::kSpan:
      close_batch(t);
      break;
    case Last::kEpochEnd:
      epoch_overhead_s_ += t - last_t_;
      break;
    case Last::kFitBegin:
      fit_begin_s_ += t - last_t_;
      break;
    case Last::kNone:
      break;
  }
  if (!in_epoch_) {
    in_epoch_ = true;
    batch_in_epoch_ = 0;
    epoch_attributed_ = 0.0;
  } else {
    ++batch_in_epoch_;
  }
  timing_ = (epoch_closure_.size() + batch_in_epoch_) % 2 == 0;
  batch_start_ = t;
  last_ = Last::kStamp;
  last_t_ = t;
}

void TrainTimeline::span(std::size_t layer, Phase phase, Pass pass,
                         std::size_t rows, double t0, double t1) {
  const double gap = t0 - last_t_;
  if (last_ == Last::kStamp) {
    batch_prep_s_ += gap;  // make_batch (+ the Proposed buffer gather)
  } else if (last_ == Last::kSpan) {
    // Attack-phase gaps: loss, sign/clip/project, the Proposed scatter and
    // the hand-over to the update. Update-phase gaps: loss and the
    // clean/adversarial mixture glue between the update passes.
    (phase == Phase::kAttack || last_phase_ == Phase::kAttack ? attack_gap_s_
                                                               : loss_s_) +=
        gap;
  }
  const double d = t1 - t0;
  span_s_[index(layer, phase, pass)] += d;
  examples_[index(layer, phase, pass)] += rows;
  if (phase == Phase::kAttack) attack_span_s_ += d;
  if (pass == Pass::kBackward && layer == 0) {
    ++backward_passes_[static_cast<int>(phase)];
  }
  if (last_ == Last::kStamp || last_ == Last::kSpan) {
    epoch_attributed_ += t1 - last_t_;
  }
  last_ = Last::kSpan;
  last_t_ = t1;
  last_phase_ = phase;
}

void TrainTimeline::epoch_timed_end(double t) {
  if (last_ == Last::kStamp || last_ == Last::kSpan) close_batch(t);
  last_ = Last::kEpochEnd;
  last_t_ = t;
}

void TrainTimeline::epoch_done(double t, double epoch_seconds) {
  epoch_overhead_s_ += t - last_t_;  // the trainer's last-good snapshot
  last_t_ = t;
  epoch_closure_.push_back(
      epoch_seconds > 0.0
          ? std::abs(epoch_attributed_ - epoch_seconds) / epoch_seconds
          : 1.0);
  in_epoch_ = false;
}

double TrainTimeline::attack_seconds() const {
  return attack_span_s_ + attack_gap_s_;
}

void TimedLayer::forward_into(const Tensor& x, Tensor& out, bool training) {
  phase_ = training ? Phase::kUpdate : Phase::kAttack;
  if (!timeline_.timing()) {
    inner_.forward_into(x, out, training);
    return;
  }
  const double t0 = now();
  inner_.forward_into(x, out, training);
  timeline_.span(index_, phase_, Pass::kForward, x.shape()[0], t0, now());
}

void TimedLayer::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (!timeline_.timing()) {
    inner_.backward_into(grad_out, grad_in);
    return;
  }
  const double t0 = now();
  inner_.backward_into(grad_out, grad_in);
  timeline_.span(index_, phase_, Pass::kBackward, grad_out.shape()[0], t0,
                 now());
}

nn::Sequential traced_view(nn::Sequential& real, TrainTimeline& timeline) {
  nn::Sequential view;
  for (std::size_t i = 0; i < real.layer_count(); ++i) {
    view.emplace<TimedLayer>(real.layer(i), i, timeline);
  }
  return view;
}

core::TrainReport fit_with_timeline(core::Trainer& trainer,
                                    const data::Dataset& train,
                                    TrainTimeline& timeline,
                                    const std::function<void()>& after_epoch) {
  trainer.set_stop_check([&timeline] {
    timeline.batch_stamp(now());
    return false;
  });
  trainer.set_epoch_health_hook(
      [&timeline](std::size_t, std::size_t, nn::Sequential&,
                  float) -> const char* {
        timeline.epoch_timed_end(now());
        return nullptr;
      });
  timeline.fit_begin(now());
  return trainer.fit(train, [&](const core::EpochStats& s) {
    timeline.epoch_done(now(), s.seconds);
    if (after_epoch) after_epoch();
  });
}

}  // namespace satd::benchmark
