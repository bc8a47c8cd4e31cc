#include "nn/dropout.h"

#include "common/contract.h"
#include "tensor/ops.h"

namespace satd::nn {

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(rng.fork(0xD209)) {
  SATD_EXPECT(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1)");
}

void Dropout::forward_into(const Tensor& x, Tensor& out, bool training) {
  was_training_ = training;
  if (!training || p_ == 0.0f) {
    ops::copy(x, out);
    note_forward();
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p_);
  mask_.ensure_shape(x.shape());
  float* pm = mask_.raw();
  for (std::size_t i = 0, n = x.numel(); i < n; ++i) {
    pm[i] = rng_.bernoulli(p_) ? 0.0f : keep_scale;
  }
  ops::mul(x, mask_, out);
  note_forward();
}

void Dropout::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  consume_cache("Dropout");
  if (!was_training_ || p_ == 0.0f) {
    ops::copy(grad_out, grad_in);
    return;
  }
  SATD_EXPECT(grad_out.shape() == mask_.shape(),
              "Dropout backward: grad shape mismatch");
  ops::mul(grad_out, mask_, grad_in);
}

LayerPtr Dropout::clone() const {
  Rng unused(0);  // the stream is overwritten below
  auto copy = std::make_unique<Dropout>(p_, unused);
  copy->rng_ = rng_;
  return copy;
}

void Dropout::release_buffers() {
  Layer::release_buffers();
  mask_ = Tensor();
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(p_) + ")";
}

}  // namespace satd::nn
