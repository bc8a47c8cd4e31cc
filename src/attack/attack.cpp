#include "attack/attack.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/contract.h"
#include "common/thread_pool.h"
#include "nn/loss.h"

namespace satd::attack {

namespace {

/// Rows per piece when crafting splits a batch across threads. Every
/// replica's layer buffers grow to this many rows, so larger pieces cost
/// peak memory (DESIGN.md §6).
constexpr std::size_t kPieceRows = 4;

/// One thread's buffers for a piece: its input rows, logits, loss
/// gradient and input gradient, reused across calls.
struct PieceBuffers {
  Tensor x, logits, grad_logits, grad;
};

thread_local PieceBuffers t_piece;

/// Forward, cross-entropy gradient at the whole batch's 1/n, and an
/// input-only backward for rows [r0, r1) of `x`, written to the same rows
/// of `grad`. The whole batch runs in place, without copies.
void piece_gradient(nn::Sequential& model, const Tensor& x,
                    std::span<const std::size_t> labels, std::size_t r0,
                    std::size_t r1, Tensor& grad) {
  PieceBuffers& b = t_piece;
  const std::size_t n = x.shape()[0];
  const bool whole = r1 - r0 == n;
  const std::size_t row = x.numel() / n;
  if (!whole) {
    std::vector<std::size_t> dims = x.shape().dims();
    dims[0] = r1 - r0;
    b.x.ensure_shape(Shape(std::move(dims)));
    std::copy(x.raw() + r0 * row, x.raw() + r1 * row, b.x.raw());
  }
  const nn::ScopedGradMode input_only(nn::GradMode::kInputOnly);
  model.forward_into(whole ? x : b.x, b.logits, /*training=*/false);
  nn::softmax_cross_entropy_rows_into(b.logits, labels.subspan(r0, r1 - r0),
                                      n, b.grad_logits);
  model.backward_into(b.grad_logits, whole ? grad : b.grad);
  if (!whole) {
    std::copy(b.grad.raw(), b.grad.raw() + b.grad.numel(),
              grad.raw() + r0 * row);
  }
}

}  // namespace

Tensor input_gradient(nn::Sequential& model, const Tensor& x,
                      std::span<const std::size_t> labels) {
  GradientScratch scratch;
  input_gradient_into(model, x, labels, scratch);
  return std::move(scratch.grad);
}

void input_gradient_into(nn::Sequential& model, const Tensor& x,
                         std::span<const std::size_t> labels,
                         GradientScratch& scratch) {
  SATD_EXPECT(x.shape().rank() >= 2, "input batch must have a batch dim");
  SATD_EXPECT(x.shape()[0] == labels.size(), "batch/label size mismatch");
  SATD_EXPECT(!labels.empty(), "empty batch");
  const std::size_t n = labels.size();
  std::size_t pieces = (n + kPieceRows - 1) / kPieceRows;
  std::size_t threads = std::min(ThreadPool::global_threads(), pieces);
  const std::span<nn::Sequential> replicas =
      threads > 1 ? model.replicas(threads - 1) : std::span<nn::Sequential>{};
  if (replicas.size() + 1 < threads) threads = 1;  // cannot clone
  if (threads == 1) pieces = 1;
  const std::size_t rows = pieces == 1 ? n : kPieceRows;
  scratch.grad.ensure_shape(x.shape());
  // Chunk t of [0, threads) takes pieces [t*pieces/threads, ...) on
  // replica t - 1, chunk 0 on the model itself. When parallel_for runs
  // inline, one chunk covers every piece.
  parallel_for(threads, [&](std::size_t t0, std::size_t t1) {
    nn::Sequential& m = t0 == 0 ? model : replicas[t0 - 1];
    for (std::size_t p = t0 * pieces / threads; p < t1 * pieces / threads;
         ++p) {
      piece_gradient(m, x, labels, p * rows, std::min(n, (p + 1) * rows),
                     scratch.grad);
    }
  });
}

}  // namespace satd::attack
