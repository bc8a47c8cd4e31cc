#include "core/free_adv_trainer.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "attack/attack.h"
#include "common/contract.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace satd::core {

FreeAdvTrainer::FreeAdvTrainer(nn::Sequential& model, TrainConfig config)
    : Trainer(model, config) {
  SATD_EXPECT(config.free_replays > 0, "free_replays must be positive");
}

std::string FreeAdvTrainer::name() const {
  return "Free-Adv(m=" + std::to_string(config_.free_replays) + ")";
}

void FreeAdvTrainer::save_method_state(std::ostream& os) const {
  write_tensor(os, delta_);
}

void FreeAdvTrainer::load_method_state(std::istream& is) {
  delta_ = read_tensor(is);
}

void FreeAdvTrainer::make_adversarial_batch(const data::Batch& /*batch*/,
                                            Tensor& /*adv*/) {
  SATD_ENSURE(false, "FreeAdvTrainer::train_batch bypasses this hook");
}

float FreeAdvTrainer::train_batch(const data::Batch& batch) {
  // The delta buffer is allocated once at the nominal (first-batch)
  // size and carried across batches; a smaller trailing batch uses the
  // leading rows of the buffer.
  if (delta_.empty()) {
    delta_ = Tensor(batch.images.shape());
  }
  const std::size_t used = batch.images.numel();
  SATD_ENSURE(used <= delta_.numel(), "batch larger than the delta buffer");

  const float step =
      config_.eps / static_cast<float>(config_.free_replays);
  double loss_acc = 0.0;
  perturbed_.ensure_shape(batch.images.shape());
  for (std::size_t replay = 0; replay < config_.free_replays; ++replay) {
    // x_adv = clip(x + delta) into the eps-ball and pixel range.
    {
      const float* px = batch.images.raw();
      const float* pd = delta_.raw();
      float* pp = perturbed_.raw();
      for (std::size_t i = 0; i < used; ++i) pp[i] = px[i] + pd[i];
    }
    ops::project_linf(batch.images, config_.eps, attack::kPixelMin,
                      attack::kPixelMax, perturbed_);
    // One backward yields parameter grads AND input grads.
    model_.zero_grad();
    model_.forward_into(perturbed_, logits_scratch_, /*training=*/true);
    nn::softmax_cross_entropy_into(logits_scratch_, batch.labels,
                                   loss_scratch_);
    model_.backward_into(loss_scratch_.grad_logits, grad_x_);
    apply_step();
    loss_acc += loss_scratch_.value;
    // Ascend the input gradient; keep delta inside the eps box.
    float* pd = delta_.raw();
    const float* pg = grad_x_.raw();
    for (std::size_t i = 0; i < used; ++i) {
      const float s = (pg[i] > 0.0f) ? 1.0f : (pg[i] < 0.0f ? -1.0f : 0.0f);
      pd[i] = std::clamp(pd[i] + step * s, -config_.eps, config_.eps);
    }
  }
  return static_cast<float>(loss_acc /
                            static_cast<double>(config_.free_replays));
}

}  // namespace satd::core
