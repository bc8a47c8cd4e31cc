// "Free" adversarial training (Shafahi et al. 2019) — extension beyond
// the paper's evaluation, included because it attacks the same problem
// (the cost of Iter-Adv) with a complementary trick.
//
// Where the Proposed method amortizes the BIM iteration across EPOCHS
// via a persistent per-example buffer, free adversarial training
// amortizes it across REPLAYS of each mini-batch: every batch is trained
// `replays` times in a row, and the single backward pass of each replay
// yields both the parameter gradients (used to update the model) and the
// input gradients (used to update a persistent perturbation delta) — the
// adversarial examples come "for free". The perturbation delta carries
// over from batch to batch, like the original paper's implementation.
#pragma once

#include "core/trainer.h"

namespace satd::core {

/// Free adversarial training with config.free_replays replays per batch.
class FreeAdvTrainer : public Trainer {
 public:
  FreeAdvTrainer(nn::Sequential& model, TrainConfig config);

  std::string name() const override;

  /// The carried perturbation (for tests; empty before training starts).
  const Tensor& delta() const { return delta_; }

 protected:
  // Unused: this trainer overrides train_batch wholesale.
  void make_adversarial_batch(const data::Batch& batch,
                              Tensor& adv) override;
  float train_batch(const data::Batch& batch) override;
  void save_method_state(std::ostream& os) const override;
  void load_method_state(std::istream& is) override;

 private:
  Tensor delta_;      // [B, C, H, W] perturbation carried across batches
  Tensor perturbed_;  // reused x + delta buffer
  Tensor grad_x_;     // reused dLoss/dInput of the perturbed batch
};

}  // namespace satd::core
