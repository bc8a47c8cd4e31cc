#include "nn/dense.h"

#include <cmath>

#include "common/contract.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace satd::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_(Shape{in_features, out_features}),
      b_(Shape{out_features}),
      gw_(Shape{in_features, out_features}),
      gb_(Shape{out_features}) {
  SATD_EXPECT(in_features > 0 && out_features > 0,
              "Dense dimensions must be positive");
  init::he_normal(w_, in_features, rng);
}

void Dense::forward_into(const Tensor& x, Tensor& out, bool /*training*/) {
  SATD_EXPECT(x.shape().rank() == 2 && x.shape()[1] == in_,
              "Dense forward: expected [N, " + std::to_string(in_) +
                  "], got " + x.shape().to_string());
  ops::copy(x, x_cache_);
  ops::matmul(x, w_, out);
  ops::add_row_bias(out, b_, out);
  note_forward();
}

void Dense::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  consume_cache("Dense");
  SATD_EXPECT((grad_out.shape() == Shape{x_cache_.shape()[0], out_}),
              "Dense backward: grad shape mismatch");
  const GradMode mode = ScopedGradMode::current();
  // gW += xᵀ·g ; gb += Σ_rows g ; gx = g·Wᵀ
  if (mode != GradMode::kInputOnly) {
    ops::matmul_tn(x_cache_, grad_out, gw_batch_);
    ops::axpy(1.0f, gw_batch_, gw_);
    ops::sum_rows(grad_out, gb_batch_);
    ops::axpy(1.0f, gb_batch_, gb_);
  }
  if (mode != GradMode::kParamsOnly) ops::matmul_nt(grad_out, w_, grad_in);
}

LayerPtr Dense::clone() const {
  Rng unused(0);  // the initial weights are overwritten below
  auto copy = std::make_unique<Dense>(in_, out_, unused);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

void Dense::release_buffers() {
  Layer::release_buffers();
  x_cache_ = Tensor();
  gw_batch_ = Tensor();
  gb_batch_ = Tensor();
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

Shape Dense::output_shape(const Shape& input) const {
  SATD_EXPECT(input.rank() == 1 && input[0] == in_,
              "Dense expects a flat input of width " + std::to_string(in_));
  return Shape{out_};
}

}  // namespace satd::nn
