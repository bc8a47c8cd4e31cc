// 2-D convolution layer (stride 1, optional symmetric zero padding),
// lowered to matmul via im2col / col2im.
#pragma once

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/im2col.h"

namespace satd::nn {

/// Convolution over [N, C, H, W] batches with a square kernel.
///
/// The filter bank is stored as a [out_channels, in_channels*k*k] matrix.
/// The whole batch is unfolded at once (im2col_batch), so the forward
/// pass and the weight-gradient pass are each ONE GEMM per batch rather
/// than one per image; the input-gradient pass (needed by adversarial
/// attacks) is a GEMM followed by col2im_batch, the exact adjoint of the
/// forward lowering. All scratch (columns, GEMM outputs, re-layout
/// buffers) persists across batches and resizes only on shape change.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t padding, Rng& rng);

  void forward_into(const Tensor& x, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  LayerPtr clone() const override;

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  void release_buffers() override;

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t padding() const { return padding_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  ConvGeometry geometry_for(const Shape& batch_shape) const;

  std::size_t in_c_, out_c_, kernel_, padding_;
  Tensor w_, b_;    // [out_c, in_c*k*k], [out_c]
  Tensor gw_, gb_;
  // Batched im2col columns from the last forward
  // ([N*oh*ow, patch], needed by the weight-gradient pass) plus the
  // input geometry.
  Tensor cols_cache_;
  ConvGeometry cached_geometry_;
  std::size_t cached_batch_ = 0;
  // Reused scratch: forward GEMM output, backward grad re-layout,
  // per-batch weight/bias gradients, column gradients.
  Tensor y_, g2_, gw_batch_, gb_batch_, gcols_;
};

}  // namespace satd::nn
