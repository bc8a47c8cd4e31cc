// 2x2 (configurable) max pooling with stride equal to the window.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace satd::nn {

/// Non-overlapping max pooling over [N, C, H, W]. H and W must be
/// divisible by the window (the paper's 28x28 models pool even extents).
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2);

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;

  void release_buffers() override;
  LayerPtr clone() const override {
    return std::make_unique<MaxPool2d>(window_);
  }

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  // Flat input index of each pooled maximum, one per output element.
  std::vector<std::size_t> argmax_;
  Shape in_shape_;
};

}  // namespace satd::nn
