#include "core/alp_trainer.h"

#include "attack/fgsm.h"
#include "common/contract.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace satd::core {

LogitPairResult logit_pairing(const Tensor& logits_clean,
                              const Tensor& logits_adv) {
  SATD_EXPECT(logits_clean.shape() == logits_adv.shape(),
              "logit batch shape mismatch");
  SATD_EXPECT(logits_clean.numel() > 0, "empty logit batch");
  LogitPairResult res;
  res.grad_clean = Tensor(logits_clean.shape());
  res.grad_adv = Tensor(logits_adv.shape());
  const float inv = 1.0f / static_cast<float>(logits_clean.numel());
  const float* pa = logits_clean.raw();
  const float* pb = logits_adv.raw();
  float* ga = res.grad_clean.raw();
  float* gb = res.grad_adv.raw();
  double acc = 0.0;
  for (std::size_t i = 0, n = logits_clean.numel(); i < n; ++i) {
    const float d = pa[i] - pb[i];
    acc += static_cast<double>(d) * d;
    ga[i] = 2.0f * inv * d;
    gb[i] = -2.0f * inv * d;
  }
  res.value = static_cast<float>(acc) * inv;
  return res;
}

AlpTrainer::AlpTrainer(nn::Sequential& model, TrainConfig config)
    : Trainer(model, config), attack_(config.eps) {
  SATD_EXPECT(config.alp_weight >= 0.0f, "alp_weight must be non-negative");
}

void AlpTrainer::make_adversarial_batch(const data::Batch& batch,
                                        Tensor& adv) {
  attack_.perturb_into(model_, batch.images, batch.labels, adv);
}

float AlpTrainer::train_batch(const data::Batch& batch) {
  make_adversarial_batch(batch, adv_scratch_);

  // Same two-forward structure as ATDA (see atda_trainer.cpp): the layer
  // caches end up matching the adversarial batch, whose backward runs
  // first; the clean forward is repeated before the clean backward.
  model_.forward_into(batch.images, logits_clean_, /*training=*/true);
  model_.forward_into(adv_scratch_, logits_adv_, /*training=*/true);

  const LogitPairResult pair = logit_pairing(logits_clean_, logits_adv_);
  nn::softmax_cross_entropy_into(logits_adv_, batch.labels, ce_adv_);
  nn::softmax_cross_entropy_into(logits_clean_, batch.labels, ce_clean_);

  const float mix = config_.adv_mix;
  const float lambda = config_.alp_weight;
  model_.zero_grad();
  ops::scale(ce_adv_.grad_logits, mix, grad_side_);
  ops::axpy(lambda, pair.grad_adv, grad_side_);
  model_.backward_params(grad_side_);
  model_.forward_into(batch.images, logits_clean_, /*training=*/true);
  ops::scale(ce_clean_.grad_logits, 1.0f - mix, grad_side_);
  ops::axpy(lambda, pair.grad_clean, grad_side_);
  model_.backward_params(grad_side_);
  apply_step();

  return (1.0f - mix) * ce_clean_.value + mix * ce_adv_.value +
         lambda * pair.value;
}

}  // namespace satd::core
