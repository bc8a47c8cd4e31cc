#include "nn/batchnorm.h"

#include <cmath>

#include "common/contract.h"

namespace satd::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::full(Shape{channels}, 1.0f)),
      beta_(Shape{channels}),
      ggamma_(Shape{channels}),
      gbeta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Tensor::full(Shape{channels}, 1.0f)) {
  SATD_EXPECT(channels > 0, "channels must be positive");
  SATD_EXPECT(momentum > 0.0f && momentum <= 1.0f,
              "momentum must be in (0,1]");
  SATD_EXPECT(eps > 0.0f, "eps must be positive");
}

void BatchNorm2d::forward_into(const Tensor& x, Tensor& out, bool training) {
  SATD_EXPECT(x.shape().rank() == 4 && x.shape()[1] == channels_,
              "BatchNorm2d expects [N, " + std::to_string(channels_) +
                  ", H, W]");
  const std::size_t n = x.shape()[0];
  const std::size_t h = x.shape()[2];
  const std::size_t w = x.shape()[3];
  const std::size_t plane = h * w;
  const std::size_t m = n * plane;  // elements per channel
  SATD_EXPECT(!training || m >= 2,
              "BatchNorm2d training needs >= 2 elements per channel");

  in_shape_ = x.shape();
  cached_training_ = training;
  x_hat_.ensure_shape(x.shape());
  inv_std_.ensure_shape(Shape{channels_});
  out.ensure_shape(x.shape());

  const float* px = x.raw();
  float* pxh = x_hat_.raw();
  float* po = out.raw();
  for (std::size_t c = 0; c < channels_; ++c) {
    float mean, var;
    if (training) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const float* p = px + (i * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) acc += p[j];
      }
      mean = static_cast<float>(acc / static_cast<double>(m));
      double vacc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const float* p = px + (i * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          const double d = p[j] - mean;
          vacc += d * d;
        }
      }
      var = static_cast<float>(vacc / static_cast<double>(m));  // biased
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv = 1.0f / std::sqrt(var + eps_);
    inv_std_[c] = inv;
    const float g = gamma_[c];
    const float b = beta_[c];
    for (std::size_t i = 0; i < n; ++i) {
      const float* p = px + (i * channels_ + c) * plane;
      float* xh = pxh + (i * channels_ + c) * plane;
      float* o = po + (i * channels_ + c) * plane;
      for (std::size_t j = 0; j < plane; ++j) {
        xh[j] = (p[j] - mean) * inv;
        o[j] = g * xh[j] + b;
      }
    }
  }
  note_forward();
}

void BatchNorm2d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  consume_cache("BatchNorm2d");
  SATD_EXPECT(in_shape_.rank() == 4, "BatchNorm2d backward before forward");
  SATD_EXPECT(grad_out.shape() == in_shape_, "grad shape mismatch");
  const std::size_t n = in_shape_[0];
  const std::size_t plane = in_shape_[2] * in_shape_[3];
  const std::size_t m = n * plane;
  const GradMode mode = ScopedGradMode::current();
  // The channel sums feed dgamma/dbeta and the training-mode dx; an
  // input-only backward through inference statistics needs neither.
  const bool need_sums = mode != GradMode::kInputOnly || cached_training_;

  if (mode != GradMode::kParamsOnly) grad_in.ensure_shape(in_shape_);
  const float* pg = grad_out.raw();
  const float* pxh = x_hat_.raw();
  float* pgx = grad_in.raw();
  for (std::size_t c = 0; c < channels_; ++c) {
    // Accumulate dgamma = Σ g·x̂ and dbeta = Σ g for the channel.
    double sum_g = 0.0, sum_gxh = 0.0;
    if (need_sums) {
      for (std::size_t i = 0; i < n; ++i) {
        const float* g = pg + (i * channels_ + c) * plane;
        const float* xh = pxh + (i * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          sum_g += g[j];
          sum_gxh += static_cast<double>(g[j]) * xh[j];
        }
      }
    }
    if (mode != GradMode::kInputOnly) {
      ggamma_[c] += static_cast<float>(sum_gxh);
      gbeta_[c] += static_cast<float>(sum_g);
    }
    if (mode == GradMode::kParamsOnly) continue;

    const float scale = gamma_[c] * inv_std_[c];
    if (cached_training_) {
      // Exact backward through the batch statistics:
      // dx = (γ/σ) (g − mean(g) − x̂ · mean(g·x̂))
      const float mean_g = static_cast<float>(sum_g / static_cast<double>(m));
      const float mean_gxh =
          static_cast<float>(sum_gxh / static_cast<double>(m));
      for (std::size_t i = 0; i < n; ++i) {
        const float* g = pg + (i * channels_ + c) * plane;
        const float* xh = pxh + (i * channels_ + c) * plane;
        float* out = pgx + (i * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          out[j] = scale * (g[j] - mean_g - xh[j] * mean_gxh);
        }
      }
    } else {
      // Inference statistics are constants: dx = γ/σ_running · g. This is
      // the path adversarial attacks differentiate through.
      for (std::size_t i = 0; i < n; ++i) {
        const float* g = pg + (i * channels_ + c) * plane;
        float* out = pgx + (i * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) out[j] = scale * g[j];
      }
    }
  }
}

LayerPtr BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(channels_, momentum_, eps_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

void BatchNorm2d::release_buffers() {
  Layer::release_buffers();
  x_hat_ = Tensor();
  inv_std_ = Tensor();
  in_shape_ = Shape{};
}

std::string BatchNorm2d::name() const {
  return "BatchNorm2d(" + std::to_string(channels_) + ")";
}

Shape BatchNorm2d::output_shape(const Shape& input) const {
  SATD_EXPECT(input.rank() == 3 && input[0] == channels_,
              "BatchNorm2d expects a [C, H, W] input shape");
  return input;
}

}  // namespace satd::nn
