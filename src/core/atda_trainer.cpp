#include "core/atda_trainer.h"

#include <istream>
#include <ostream>

#include "attack/fgsm.h"
#include "common/contract.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace satd::core {

AtdaTrainer::AtdaTrainer(nn::Sequential& model, TrainConfig config)
    : Trainer(model, config), attack_(config.eps) {}

void AtdaTrainer::on_fit_begin(const data::Dataset& train) {
  // Logit-space centers: one row per class, width = number of logits.
  Rng init_rng = rng_.fork(0xA7DA);
  centers_ = Tensor(Shape{train.num_classes, train.num_classes});
  // Small random init keeps the margin term from being degenerate (all
  // centers identical) during the first batches.
  for (float& v : centers_.data()) {
    v = static_cast<float>(init_rng.normal(0.0, 0.1));
  }
}

void AtdaTrainer::save_method_state(std::ostream& os) const {
  write_tensor(os, centers_);
}

void AtdaTrainer::load_method_state(std::istream& is) {
  centers_ = read_tensor(is);
}

void AtdaTrainer::make_adversarial_batch(const data::Batch& batch,
                                         Tensor& adv) {
  attack_.perturb_into(model_, batch.images, batch.labels, adv);
}

float AtdaTrainer::train_batch(const data::Batch& batch) {
  SATD_EXPECT(batch.size() >= 2, "ATDA requires batches of at least 2");
  make_adversarial_batch(batch, adv_scratch_);

  // Two forwards to obtain both logit batches. The layer caches end up
  // corresponding to the adversarial batch, so its backward runs first;
  // the clean forward is then repeated to restore caches before the
  // clean backward. (This re-forward is the honest cost of the DA loss
  // in a cache-per-layer framework and is part of why ATDA sits between
  // Proposed and Iter-Adv in the per-epoch timing column.)
  model_.forward_into(batch.images, logits_clean_, /*training=*/true);
  model_.forward_into(adv_scratch_, logits_adv_, /*training=*/true);

  const AtdaLossWeights weights{config_.atda_lambda_coral,
                                config_.atda_lambda_mmd,
                                config_.atda_lambda_margin,
                                config_.atda_margin};
  const AtdaLossResult da =
      atda_domain_loss(logits_clean_, logits_adv_, batch.labels, centers_,
                       weights);

  const float mix = config_.adv_mix;
  nn::softmax_cross_entropy_into(logits_adv_, batch.labels, ce_adv_);
  nn::softmax_cross_entropy_into(logits_clean_, batch.labels, ce_clean_);

  model_.zero_grad();
  // Adversarial side: weighted CE grad + DA grad (caches match adv now).
  ops::scale(ce_adv_.grad_logits, mix, grad_side_);
  ops::axpy(1.0f, da.grad_adv, grad_side_);
  model_.backward_params(grad_side_);
  // Clean side: re-forward to restore caches, then backward.
  model_.forward_into(batch.images, logits_clean_, /*training=*/true);
  ops::scale(ce_clean_.grad_logits, 1.0f - mix, grad_side_);
  ops::axpy(1.0f, da.grad_clean, grad_side_);
  model_.backward_params(grad_side_);
  apply_step();

  // EMA the class centers from both domains (centers are constants for
  // the gradient, updated after the step like the reference method).
  update_class_centers(centers_, logits_clean_, batch.labels,
                       config_.atda_center_alpha);
  update_class_centers(centers_, logits_adv_, batch.labels,
                       config_.atda_center_alpha);

  return (1.0f - mix) * ce_clean_.value + mix * ce_adv_.value + da.total;
}

}  // namespace satd::core
