// Fully connected layer: y = x·W + b.
#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace satd::nn {

/// Dense (fully connected) layer over [N, in] batches.
///
/// Weights are [in, out] so the forward pass is a single row-major
/// matmul; He-normal initialization by default (suits the ReLU networks
/// in the paper's experiments).
class Dense : public Layer {
 public:
  /// Constructs with He-normal weights drawn from `rng` and zero bias.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  LayerPtr clone() const override;

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  void release_buffers() override;

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// Direct parameter access for tests and serialization.
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_, b_;    // parameters
  Tensor gw_, gb_;  // accumulated gradients
  Tensor x_cache_;  // input from the last forward (reused buffer)
  Tensor gw_batch_, gb_batch_;  // backward scratch (reused buffers)
};

}  // namespace satd::nn
