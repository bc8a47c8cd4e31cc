// Per-layer attribution of a training run, recorded entirely from the
// benchmark's side of the public API:
//
//   * TimedLayer wraps a model's real layer (non-owning) and reports each
//     forward/backward call as a span. The forward's `training` flag splits
//     the spans by phase: attack crafting runs the model with
//     training=false (attack::input_gradient_into), the update step with
//     training=true. A backward belongs to the phase of the forward it
//     follows.
//   * Batch boundaries come from Trainer::set_stop_check (polled before
//     every batch), the end of an epoch's timed region from the epoch
//     health hook, and the epoch's own time from the fit callback.
//   * Every other batch is timed; the rest run untimed, so the difference
//     between the two sets' median batch times is the cost of tracing,
//     measured within one fit (the host's speed drifts between fits by
//     more than tracing costs). Which batches are timed alternates by
//     epoch, so the short last batch of an epoch falls in both sets.
//
// TrainTimeline turns that event stream into named time: every interval
// between two consecutive events is either a layer span, a named gap or an
// untimed batch, so the parts of an epoch add up to the whole by
// construction and the closure check compares that whole with the
// trainer's own EpochStats::seconds.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "nn/layer.h"
#include "nn/sequential.h"

namespace satd::benchmark {

enum class Phase { kAttack = 0, kUpdate = 1 };
enum class Pass { kForward = 0, kBackward = 1 };

/// Catalogue tag of layer i of a model: "<i>_<lowercased type>", e.g.
/// "0_conv2d" for "Conv2d(1->4, k=3, p=0)".
std::string layer_tag(std::size_t index, const nn::Layer& layer);

/// Forward multiply-add count of layer i for a batch of `batch` examples
/// of cnn_small's input geometry, derived from the layer shapes; 0 for
/// layers that do no GEMM.
double layer_macs(nn::Sequential& model, std::size_t index,
                  std::size_t batch);

/// Event sink shared by the TimedLayers of one traced model and the
/// trainer hooks.
class TrainTimeline {
 public:
  explicit TrainTimeline(std::size_t layers);

  void fit_begin(double t);
  void batch_stamp(double t);
  /// Whether the running batch is timed (TimedLayers report spans).
  bool timing() const { return timing_; }
  void span(std::size_t layer, Phase phase, Pass pass, std::size_t rows,
            double t0, double t1);
  /// End of the epoch's batches (the epoch health hook).
  void epoch_timed_end(double t);
  /// The fit callback, with the trainer's own epoch time.
  void epoch_done(double t, double epoch_seconds);

  // ---- results; per-batch sums cover the timed batches only ----
  std::size_t timed_batches() const { return timed_batch_s_.size(); }
  /// Examples that went through one layer, per phase and pass.
  std::size_t examples(std::size_t layer, Phase phase, Pass pass) const {
    return examples_[index(layer, phase, pass)];
  }
  double span_seconds(std::size_t layer, Phase phase, Pass pass) const {
    return span_s_[index(layer, phase, pass)];
  }
  std::size_t backward_passes(Phase phase) const {
    return backward_passes_[static_cast<int>(phase)];
  }
  double attack_seconds() const;  ///< attack spans + attack gaps
  double attack_gap_seconds() const { return attack_gap_s_; }
  double loss_seconds() const { return loss_s_; }
  double optimizer_seconds() const { return optimizer_s_; }
  double batch_prep_seconds() const { return batch_prep_s_; }
  double fit_begin_seconds() const { return fit_begin_s_; }
  double epoch_overhead_seconds() const { return epoch_overhead_s_; }
  std::size_t epochs() const { return epoch_closure_.size(); }
  /// Wall time of each batch (stamp to next stamp or epoch end), in order.
  const std::vector<double>& batch_seconds() const { return batch_s_; }
  const std::vector<double>& timed_batch_seconds() const {
    return timed_batch_s_;
  }
  const std::vector<double>& untimed_batch_seconds() const {
    return untimed_batch_s_;
  }
  /// Per epoch: |attributed - EpochStats::seconds| / EpochStats::seconds.
  const std::vector<double>& epoch_closure() const { return epoch_closure_; }

 private:
  enum class Last { kNone, kFitBegin, kStamp, kSpan, kEpochEnd };

  std::size_t index(std::size_t layer, Phase phase, Pass pass) const {
    return (layer * 2 + static_cast<std::size_t>(phase)) * 2 +
           static_cast<std::size_t>(pass);
  }
  /// Closes the running batch at time t (its tail gap is optimizer time).
  void close_batch(double t);

  std::vector<double> span_s_;
  std::vector<std::size_t> examples_;
  std::size_t backward_passes_[2] = {0, 0};
  double attack_span_s_ = 0.0;
  double attack_gap_s_ = 0.0;
  double loss_s_ = 0.0;
  double optimizer_s_ = 0.0;
  double batch_prep_s_ = 0.0;
  double fit_begin_s_ = 0.0;
  double epoch_overhead_s_ = 0.0;
  std::vector<double> batch_s_;
  std::vector<double> timed_batch_s_;
  std::vector<double> untimed_batch_s_;
  std::vector<double> epoch_closure_;

  Last last_ = Last::kNone;
  double last_t_ = 0.0;
  Phase last_phase_ = Phase::kAttack;
  bool timing_ = false;
  std::size_t batch_in_epoch_ = 0;
  double batch_start_ = 0.0;
  bool in_epoch_ = false;
  double epoch_attributed_ = 0.0;
};

/// Wraps a real layer (not owned; it must outlive the wrapper) and reports
/// every forward/backward call of a timed batch to a TrainTimeline.
/// Parameters, gradients and state are the real layer's, so a trainer sees
/// the same tensors and computes bit-identical results.
class TimedLayer : public nn::Layer {
 public:
  TimedLayer(nn::Layer& inner, std::size_t index, TrainTimeline& timeline)
      : inner_(inner), index_(index), timeline_(timeline) {}

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;

  std::vector<Tensor*> parameters() override { return inner_.parameters(); }
  std::vector<Tensor*> gradients() override { return inner_.gradients(); }
  std::vector<Tensor*> state_tensors() override {
    return inner_.state_tensors();
  }
  void zero_grad() override { inner_.zero_grad(); }
  void release_buffers() override { inner_.release_buffers(); }
  std::string name() const override { return inner_.name(); }
  Shape output_shape(const Shape& input) const override {
    return inner_.output_shape(input);
  }

 private:
  nn::Layer& inner_;
  std::size_t index_;
  TrainTimeline& timeline_;
  Phase phase_ = Phase::kAttack;  ///< phase of the last forward
};

/// A model whose layers are TimedLayers over `real`'s layers; `real` and
/// `timeline` must outlive it.
nn::Sequential traced_view(nn::Sequential& real, TrainTimeline& timeline);

/// Installs the batch/epoch hooks on `trainer` and runs fit. Works for a
/// plain (untimed) model too: the timeline then sees only batch and epoch
/// boundaries, which is what the untraced run's batch times come from.
/// `after_epoch` (optional) runs at every epoch boundary, outside the
/// trainer's EpochStats::seconds.
core::TrainReport fit_with_timeline(
    core::Trainer& trainer, const data::Dataset& train,
    TrainTimeline& timeline, const std::function<void()>& after_epoch = {});

}  // namespace satd::benchmark
