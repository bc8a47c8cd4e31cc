#include "core/fgsm_reg_trainer.h"

#include "common/contract.h"
#include "core/alp_trainer.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace satd::core {

FgsmRegTrainer::FgsmRegTrainer(nn::Sequential& model, TrainConfig config)
    : Trainer(model, config),
      attack_(config.eps),
      probe_(config.eps, config.fgsm_reg_iterations) {
  SATD_EXPECT(config.fgsm_reg_weight >= 0.0f,
              "fgsm_reg_weight must be non-negative");
  SATD_EXPECT(config.fgsm_reg_iterations > 0,
              "the iterative probe needs at least one iteration");
}

void FgsmRegTrainer::make_adversarial_batch(const data::Batch& batch,
                                            Tensor& adv) {
  attack_.perturb_into(model_, batch.images, batch.labels, adv);
}

float FgsmRegTrainer::train_batch(const data::Batch& batch) {
  make_adversarial_batch(batch, adv_scratch_);
  probe_.perturb_into(model_, batch.images, batch.labels, probe_scratch_);

  model_.forward_into(adv_scratch_, logits_fgsm_, /*training=*/true);
  model_.forward_into(probe_scratch_, logits_probe_, /*training=*/true);

  // grad_clean is the FGSM side (first argument), grad_adv the probe side.
  const LogitPairResult pair = logit_pairing(logits_fgsm_, logits_probe_);
  nn::softmax_cross_entropy_into(logits_fgsm_, batch.labels, ce_fgsm_);

  const float mix = config_.adv_mix;
  const float lambda = config_.fgsm_reg_weight;
  model_.zero_grad();

  // Backward order follows the cache discipline (see alp_trainer.cpp):
  // the layer caches currently match the probe batch, so its side of the
  // pairing gradient goes first; each later backward re-forwards its own
  // batch.
  ops::scale(pair.grad_adv, lambda, grad_side_);
  model_.backward_params(grad_side_);

  model_.forward_into(adv_scratch_, logits_fgsm_, /*training=*/true);
  ops::scale(ce_fgsm_.grad_logits, mix, grad_side_);
  ops::axpy(lambda, pair.grad_clean, grad_side_);
  model_.backward_params(grad_side_);

  const float clean_loss =
      accumulate_loss_gradient(batch.images, batch.labels, 1.0f - mix);
  apply_step();

  return (1.0f - mix) * clean_loss + mix * ce_fgsm_.value +
         lambda * pair.value;
}

}  // namespace satd::core
