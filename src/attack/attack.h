// Adversarial attack interface and shared gradient machinery.
//
// All attacks here are white-box l-infinity evasion attacks as defined in
// the paper (Section II): they perturb inputs within an eps-ball (and the
// valid pixel range [0, 1]) in directions given by the sign of the loss
// gradient with respect to the input.
//
// Execution model: the primitive is the out-parameter perturb_into, and
// every attack instance owns a GradientScratch whose input-gradient
// buffer is reused across calls AND across the iterations of iterative
// attacks. The value-returning perturb is a thin wrapper for convenience
// call sites.
//
// Crafting needs only dLoss/dInput, so its backward runs under
// nn::GradMode::kInputOnly, and no example's gradient depends on another
// example. input_gradient_into therefore splits a batch into pieces of at
// most 4 rows and runs them on the global pool's threads, each
// thread through its own replica of the model (Sequential::replicas; the
// calling thread uses the model itself). Every piece's loss gradient
// keeps the whole batch's 1/n, so the result is bit-identical to one
// whole-batch pass. A 1-thread pool, a batch of one piece, or a model
// that cannot clone runs the same loop as one whole-batch piece.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/sequential.h"

namespace satd::attack {

/// Valid pixel range for all image data in this library.
inline constexpr float kPixelMin = 0.0f;
inline constexpr float kPixelMax = 1.0f;

/// Reusable result buffer for input-gradient evaluation. Attacks keep one
/// per instance so the per-iteration gradient of BIM/PGD/MI-FGSM is
/// allocated once and reused.
struct GradientScratch {
  Tensor grad;  ///< dLoss/dInput, shape of the input batch
};

/// Computes dLoss/dInput for a batch under softmax cross-entropy. Leaves
/// the model's parameters and parameter gradients as they were.
Tensor input_gradient(nn::Sequential& model, const Tensor& x,
                      std::span<const std::size_t> labels);

/// Buffer-reuse form: the result lands in scratch.grad.
void input_gradient_into(nn::Sequential& model, const Tensor& x,
                         std::span<const std::size_t> labels,
                         GradientScratch& scratch);

/// Abstract untargeted attack.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Writes adversarial versions of `x` (same shape) into `adv`, which
  /// is resized on shape change and reused otherwise. Must keep every
  /// output pixel within [kPixelMin, kPixelMax] and within the attack's
  /// eps-ball around `x`. `adv` must not alias `x`.
  virtual void perturb_into(nn::Sequential& model, const Tensor& x,
                            std::span<const std::size_t> labels,
                            Tensor& adv) = 0;

  /// Value-returning convenience wrapper over perturb_into.
  Tensor perturb(nn::Sequential& model, const Tensor& x,
                 std::span<const std::size_t> labels) {
    Tensor adv;
    perturb_into(model, x, labels, adv);
    return adv;
  }

  /// Total l-infinity budget.
  virtual float epsilon() const = 0;

  virtual std::string name() const = 0;
};

using AttackPtr = std::unique_ptr<Attack>;

}  // namespace satd::attack
