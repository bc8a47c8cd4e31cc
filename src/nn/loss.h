// Loss functions.
//
// Softmax cross-entropy is the training loss for every method in the
// paper; it is fused (softmax + log + NLL in one pass) for numerical
// stability, and its gradient w.r.t. logits is the textbook
// (softmax - onehot) / N.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace satd::nn {

/// Result of a loss evaluation over a batch.
struct LossResult {
  float value = 0.0f;    ///< mean loss over the batch
  Tensor grad_logits;    ///< dLoss/dLogits, shape [N, K]
};

/// Row-wise softmax of logits [N, K] (numerically stabilized).
Tensor softmax(const Tensor& logits);

/// Out-parameter softmax: `out` is resized in place on shape change and
/// reused otherwise. `out` must not alias `logits`.
void softmax_into(const Tensor& logits, Tensor& out);

/// Mean softmax cross-entropy of logits [N, K] against integer labels.
/// The returned gradient is for the MEAN loss (already divided by N).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::size_t> labels);

/// Out-parameter cross-entropy: writes the loss value and gradient into
/// `res`, reusing res.grad_logits across batches. The buffer-reuse form
/// for steady-state training loops.
void softmax_cross_entropy_into(const Tensor& logits,
                                std::span<const std::size_t> labels,
                                LossResult& res);

/// Cross-entropy over some rows of a batch of `batch` rows: writes into
/// `grad` the rows' part of the gradient of the batch's MEAN loss (so a
/// piece keeps the whole batch's 1/batch) and returns the rows' summed
/// loss, added in row order. softmax_cross_entropy_into is this over
/// the whole batch.
double softmax_cross_entropy_rows_into(const Tensor& logits,
                                       std::span<const std::size_t> labels,
                                       std::size_t batch, Tensor& grad);

/// Loss value only (no gradient); used by evaluation loops.
float softmax_cross_entropy_value(const Tensor& logits,
                                  std::span<const std::size_t> labels);

/// Label-smoothed cross-entropy: targets are
/// (1 - alpha) * onehot + alpha / K. alpha = 0 reduces to the plain
/// loss; alpha in (0, 1] regularizes over-confident logits (one of the
/// regularization defenses the paper's related work surveys).
LossResult softmax_cross_entropy_smoothed(const Tensor& logits,
                                          std::span<const std::size_t> labels,
                                          float alpha);

/// Out-parameter variant of the smoothed loss (same reuse semantics as
/// softmax_cross_entropy_into).
void softmax_cross_entropy_smoothed_into(const Tensor& logits,
                                         std::span<const std::size_t> labels,
                                         float alpha, LossResult& res);

/// Value-only variant of the smoothed loss.
float softmax_cross_entropy_smoothed_value(
    const Tensor& logits, std::span<const std::size_t> labels, float alpha);

/// Fraction of rows whose argmax equals the label.
float accuracy(const Tensor& logits, std::span<const std::size_t> labels);

}  // namespace satd::nn
