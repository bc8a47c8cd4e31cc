// Flatten layer: [N, C, H, W] (or any rank >= 2) -> [N, D].
#pragma once

#include "nn/layer.h"

namespace satd::nn {

/// Reshapes each example to a flat vector; backward restores the shape.
class Flatten : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  LayerPtr clone() const override { return std::make_unique<Flatten>(); }
  std::string name() const override { return "Flatten"; }
  Shape output_shape(const Shape& input) const override;

 private:
  Shape in_shape_;
};

}  // namespace satd::nn
