#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace satd::nn {

namespace {
void check_batch(const Tensor& logits, std::span<const std::size_t> labels) {
  SATD_EXPECT(logits.shape().rank() == 2, "logits must be [N, K]");
  SATD_EXPECT(logits.shape()[0] == labels.size(),
              "label count does not match batch size");
  const std::size_t k = logits.shape()[1];
  for (std::size_t y : labels) {
    SATD_EXPECT(y < k, "label out of range");
  }
}
}  // namespace

Tensor softmax(const Tensor& logits) {
  Tensor out;
  softmax_into(logits, out);
  return out;
}

void softmax_into(const Tensor& logits, Tensor& out) {
  SATD_EXPECT(logits.shape().rank() == 2, "logits must be [N, K]");
  const std::size_t n = logits.shape()[0];
  const std::size_t k = logits.shape()[1];
  out.ensure_shape(logits.shape());
  const float* pl = logits.raw();
  float* po = out.raw();
  // Rows are independent (the denominator reduction stays within a row),
  // so a row split is deterministic for any thread count.
  const std::size_t grain = std::max<std::size_t>(1, 512 / (k + 1));
  parallel_for(n, grain, [pl, po, k](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* row = pl + i * k;
      float* orow = po + i * k;
      const float m = *std::max_element(row, row + k);
      double denom = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        orow[j] = std::exp(row[j] - m);
        denom += orow[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (std::size_t j = 0; j < k; ++j) orow[j] *= inv;
    }
  });
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::size_t> labels) {
  LossResult res;
  softmax_cross_entropy_into(logits, labels, res);
  return res;
}

void softmax_cross_entropy_into(const Tensor& logits,
                                std::span<const std::size_t> labels,
                                LossResult& res) {
  const std::size_t n = labels.size();
  const double loss =
      softmax_cross_entropy_rows_into(logits, labels, n, res.grad_logits);
  res.value = static_cast<float>(loss / static_cast<double>(n));
}

double softmax_cross_entropy_rows_into(const Tensor& logits,
                                       std::span<const std::size_t> labels,
                                       std::size_t batch, Tensor& grad) {
  check_batch(logits, labels);
  const std::size_t n = logits.shape()[0];
  const std::size_t k = logits.shape()[1];
  SATD_EXPECT(n > 0, "empty batch");
  SATD_EXPECT(n <= batch, "more rows than the batch they belong to");
  softmax_into(logits, grad);
  double loss = 0.0;
  float* pg = grad.raw();
  const float inv_n = 1.0f / static_cast<float>(batch);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = pg + i * k;
    const float p = std::max(row[labels[i]], 1e-12f);
    loss -= std::log(p);
    row[labels[i]] -= 1.0f;
    for (std::size_t j = 0; j < k; ++j) row[j] *= inv_n;
  }
  return loss;
}

float softmax_cross_entropy_value(const Tensor& logits,
                                  std::span<const std::size_t> labels) {
  check_batch(logits, labels);
  const std::size_t n = logits.shape()[0];
  const std::size_t k = logits.shape()[1];
  SATD_EXPECT(n > 0, "empty batch");
  const float* pl = logits.raw();
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = pl + i * k;
    const float m = *std::max_element(row, row + k);
    double denom = 0.0;
    for (std::size_t j = 0; j < k; ++j) denom += std::exp(row[j] - m);
    loss += std::log(denom) - (row[labels[i]] - m);
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

LossResult softmax_cross_entropy_smoothed(const Tensor& logits,
                                          std::span<const std::size_t> labels,
                                          float alpha) {
  LossResult res;
  softmax_cross_entropy_smoothed_into(logits, labels, alpha, res);
  return res;
}

void softmax_cross_entropy_smoothed_into(const Tensor& logits,
                                         std::span<const std::size_t> labels,
                                         float alpha, LossResult& res) {
  check_batch(logits, labels);
  SATD_EXPECT(alpha >= 0.0f && alpha <= 1.0f, "alpha must be in [0,1]");
  const std::size_t n = logits.shape()[0];
  const std::size_t k = logits.shape()[1];
  SATD_EXPECT(n > 0, "empty batch");
  softmax_into(logits, res.grad_logits);
  const float off = alpha / static_cast<float>(k);
  const float on = 1.0f - alpha + off;
  double loss = 0.0;
  float* pg = res.grad_logits.raw();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = pg + i * k;
    for (std::size_t j = 0; j < k; ++j) {
      const float target = (j == labels[i]) ? on : off;
      const float p = std::max(row[j], 1e-12f);
      loss -= static_cast<double>(target) * std::log(p);
      row[j] = (row[j] - target) * inv_n;
    }
  }
  res.value = static_cast<float>(loss / static_cast<double>(n));
}

float softmax_cross_entropy_smoothed_value(
    const Tensor& logits, std::span<const std::size_t> labels, float alpha) {
  check_batch(logits, labels);
  SATD_EXPECT(alpha >= 0.0f && alpha <= 1.0f, "alpha must be in [0,1]");
  const std::size_t n = logits.shape()[0];
  const std::size_t k = logits.shape()[1];
  SATD_EXPECT(n > 0, "empty batch");
  const Tensor p = softmax(logits);
  const float off = alpha / static_cast<float>(k);
  const float on = 1.0f - alpha + off;
  const float* pp = p.raw();
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const float target = (j == labels[i]) ? on : off;
      loss -= static_cast<double>(target) *
              std::log(std::max(pp[i * k + j], 1e-12f));
    }
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float accuracy(const Tensor& logits, std::span<const std::size_t> labels) {
  check_batch(logits, labels);
  if (labels.empty()) return 0.0f;
  const auto preds = ops::argmax_rows(logits);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

}  // namespace satd::nn
