// Inverted dropout.
#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace satd::nn {

/// Inverted dropout: at train time each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p), so inference needs
/// no rescaling. Uses an owned fork of the model RNG, keeping training
/// runs deterministic.
class Dropout : public Layer {
 public:
  Dropout(float p, Rng& rng);

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void release_buffers() override;
  LayerPtr clone() const override;
  std::string name() const override;
  Shape output_shape(const Shape& input) const override { return input; }

  float probability() const { return p_; }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;       // scaled keep-mask from the last training forward
  bool was_training_ = false;
};

}  // namespace satd::nn
