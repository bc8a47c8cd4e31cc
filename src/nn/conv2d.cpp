#include "nn/conv2d.h"

#include "common/contract.h"
#include "common/thread_pool.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace satd::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      padding_(padding),
      w_(Shape{out_channels, in_channels * kernel * kernel}),
      b_(Shape{out_channels}),
      gw_(Shape{out_channels, in_channels * kernel * kernel}),
      gb_(Shape{out_channels}) {
  SATD_EXPECT(in_channels > 0 && out_channels > 0 && kernel > 0,
              "Conv2d dimensions must be positive");
  init::he_normal(w_, in_channels * kernel * kernel, rng);
}

ConvGeometry Conv2d::geometry_for(const Shape& batch_shape) const {
  SATD_EXPECT(batch_shape.rank() == 4,
              "Conv2d expects [N, C, H, W], got " + batch_shape.to_string());
  SATD_EXPECT(batch_shape[1] == in_c_, "Conv2d channel mismatch");
  ConvGeometry g;
  g.in_channels = in_c_;
  g.in_h = batch_shape[2];
  g.in_w = batch_shape[3];
  g.kernel = kernel_;
  g.padding = padding_;
  return g;
}

void Conv2d::forward_into(const Tensor& x, Tensor& out, bool /*training*/) {
  const ConvGeometry g = geometry_for(x.shape());
  const std::size_t n = x.shape()[0];
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  cached_geometry_ = g;
  cached_batch_ = n;

  im2col_batch(x, g, cols_cache_);
  // y = cols · Wᵀ : [N*oh*ow, patch] x [out_c, patch]ᵀ -> [N*oh*ow, out_c]
  ops::matmul_nt(cols_cache_, w_, y_);
  // Scatter each image's rows into [out_c, oh, ow] layout with bias.
  out.ensure_shape(Shape{n, out_c_, oh, ow});
  const float* bias = b_.raw();
  float* pout = out.raw();
  const float* py = y_.raw();
  const std::size_t out_c = out_c_;
  parallel_for(n, [pout, py, bias, out_c, oh, ow](std::size_t i0,
                                                  std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* dst = pout + i * out_c * oh * ow;
      const float* src = py + i * oh * ow * out_c;
      for (std::size_t p = 0; p < oh * ow; ++p) {
        for (std::size_t c = 0; c < out_c; ++c) {
          dst[c * oh * ow + p] = src[p * out_c + c] + bias[c];
        }
      }
    }
  });
  note_forward();
}

void Conv2d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  consume_cache("Conv2d");
  const GradMode mode = ScopedGradMode::current();
  const ConvGeometry& g = cached_geometry_;
  const std::size_t n = cached_batch_;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  SATD_EXPECT((grad_out.shape() == Shape{n, out_c_, oh, ow}),
              "Conv2d backward: grad shape mismatch");

  // Re-layout [N][out_c, oh*ow] -> [N*oh*ow, out_c] column layout.
  g2_.ensure_shape(Shape{n * oh * ow, out_c_});
  const float* pgrad = grad_out.raw();
  float* pg2 = g2_.raw();
  const std::size_t out_c = out_c_;
  parallel_for(n, [pgrad, pg2, out_c, oh, ow](std::size_t i0,
                                              std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* src = pgrad + i * out_c * oh * ow;
      float* dst = pg2 + i * oh * ow * out_c;
      for (std::size_t c = 0; c < out_c; ++c) {
        for (std::size_t p = 0; p < oh * ow; ++p) {
          dst[p * out_c + c] = src[c * oh * ow + p];
        }
      }
    }
  });
  if (mode != GradMode::kInputOnly) {
    // gW += g2ᵀ · cols : [out_c, patch], one GEMM over the whole batch.
    ops::matmul_tn(g2_, cols_cache_, gw_batch_);
    ops::axpy(1.0f, gw_batch_, gw_);
    // gb += column sums of g2.
    ops::sum_rows(g2_, gb_batch_);
    ops::axpy(1.0f, gb_batch_, gb_);
  }
  if (mode != GradMode::kParamsOnly) {
    // gcols = g2 · W : [N*oh*ow, patch]; then fold back to image space.
    ops::matmul(g2_, w_, gcols_);
    col2im_batch(gcols_, n, g, grad_in);
  }
}

LayerPtr Conv2d::clone() const {
  Rng unused(0);  // the initial weights are overwritten below
  auto copy =
      std::make_unique<Conv2d>(in_c_, out_c_, kernel_, padding_, unused);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

void Conv2d::release_buffers() {
  Layer::release_buffers();
  cols_cache_ = Tensor();
  y_ = Tensor();
  g2_ = Tensor();
  gw_batch_ = Tensor();
  gb_batch_ = Tensor();
  gcols_ = Tensor();
  cached_batch_ = 0;
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ", k=" + std::to_string(kernel_) + ", p=" + std::to_string(padding_) +
         ")";
}

Shape Conv2d::output_shape(const Shape& input) const {
  SATD_EXPECT(input.rank() == 3 && input[0] == in_c_,
              "Conv2d expects a [C, H, W] input shape");
  ConvGeometry g;
  g.in_channels = in_c_;
  g.in_h = input[1];
  g.in_w = input[2];
  g.kernel = kernel_;
  g.padding = padding_;
  return Shape{out_c_, g.out_h(), g.out_w()};
}

}  // namespace satd::nn
