// Elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace satd::nn {

/// Rectified linear unit. Works on any rank; the backward mask uses the
/// convention relu'(0) = 0.
class ReLU : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void release_buffers() override;
  LayerPtr clone() const override { return std::make_unique<ReLU>(); }
  std::string name() const override { return "ReLU"; }
  Shape output_shape(const Shape& input) const override { return input; }

 private:
  Tensor x_cache_;
};

/// Hyperbolic tangent (used by one of the zoo's alternative models).
class Tanh : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void release_buffers() override;
  LayerPtr clone() const override { return std::make_unique<Tanh>(); }
  std::string name() const override { return "Tanh"; }
  Shape output_shape(const Shape& input) const override { return input; }

 private:
  Tensor y_cache_;  // tanh output; derivative is 1 - y^2
};

/// Leaky ReLU with configurable negative slope.
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f);
  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void release_buffers() override;
  LayerPtr clone() const override {
    return std::make_unique<LeakyReLU>(slope_);
  }
  std::string name() const override;
  Shape output_shape(const Shape& input) const override { return input; }

  float slope() const { return slope_; }

 private:
  float slope_;
  Tensor x_cache_;
};

}  // namespace satd::nn
