// Batch normalization (Ioffe & Szegedy 2015) over [N, C, H, W].
//
// Normalizes each channel by the batch statistics at train time (exact
// backward through the statistics, the part naive implementations get
// wrong) and by running exponential-moving-average statistics at
// inference. Attacks backprop through the INFERENCE path (they perturb
// inputs against the deployed network), so backward supports both modes
// and keys off the mode of the preceding forward.
#pragma once

#include "nn/layer.h"

namespace satd::nn {

/// Per-channel batch normalization with learned scale/shift.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  LayerPtr clone() const override;

  std::vector<Tensor*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> gradients() override { return {&ggamma_, &gbeta_}; }
  /// Running statistics are what inference normalizes by; they must
  /// survive save/load or a served model behaves like an untrained one.
  std::vector<Tensor*> state_tensors() override {
    return {&running_mean_, &running_var_};
  }

  void release_buffers() override;

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  std::size_t channels() const { return channels_; }
  float eps() const { return eps_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }

 private:
  std::size_t channels_;
  float momentum_;
  float eps_;
  Tensor gamma_, beta_;
  Tensor ggamma_, gbeta_;
  Tensor running_mean_, running_var_;
  // Forward cache (reused buffers, resized only on shape change).
  bool cached_training_ = false;
  Tensor x_hat_;        // normalized activations
  Tensor inv_std_;      // [C] 1/sqrt(var + eps) actually used
  Shape in_shape_;
};

}  // namespace satd::nn
