// Layer interface for the layer-wise backprop NN framework.
//
// The framework deliberately avoids a general autograd graph: the models
// in this paper are plain feed-forward chains, so each layer implements
// an exact forward and an exact backward (producing both parameter
// gradients and the gradient with respect to its input). The input
// gradient is what the attack library consumes — FGSM/BIM are defined by
// the sign of dLoss/dInput.
//
// Execution model (see DESIGN.md "Execution model: workspaces and buffer
// reuse"): the primitive operations are the OUT-PARAMETER pair
// forward_into / backward_into. Layers own their scratch and cache
// buffers persistently and resize them only on shape change, so a
// steady-state training loop (fixed batch shape) performs zero heap
// allocations inside layer forward/backward. The value-returning
// forward / backward are thin non-virtual wrappers that allocate the
// result tensor and delegate — the convenience form for tests and cold
// paths, mirroring the ops.h idiom.
//
// Contract:
//  * forward_into(x, out, training) writes the activation into `out`
//    (resized in place on shape change, storage reused otherwise) and
//    caches whatever backward needs. `out` must not alias `x` or any
//    live cache. `training` toggles train-only behaviour (dropout).
//  * backward_into(grad_out, grad_in) must follow a matching
//    forward_into with the same batch; it ACCUMULATES into the parameter
//    gradients (so a mixture loss can run clean and adversarial batches
//    back to back before one optimizer step) and writes dLoss/dInput
//    into `grad_in` (same reuse semantics). Each forward overwrites the
//    layer's cache and each backward CONSUMES it, so the legal order is
//    forward(a); backward(ga); forward(b); backward(gb). Running
//    backward against a consumed cache fails fast with a
//    ContractViolation instead of silently computing wrong gradients.
//  * zero_grad() clears accumulated parameter gradients.
//  * release_buffers() frees scratch/caches; they regrow on next use.
//  * What a backward computes is the calling thread's GradMode (below):
//    attack crafting needs only dLoss/dInput, and the update pass's
//    first trainable layer needs only its parameter gradients. The mode
//    is scoped state rather than an argument so that it also reaches a
//    layer through wrappers that forward only forward_into and
//    backward_into.
//  * clone() copies a layer's configuration and parameters (and state
//    tensors) but none of its caches or gradients; layers that cannot be
//    copied return nullptr.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/contract.h"
#include "tensor/tensor.h"

namespace satd::nn {

/// What backward_into computes on the calling thread.
enum class GradMode {
  kFull,        ///< parameter gradients and dLoss/dInput (the default)
  kInputOnly,   ///< dLoss/dInput only; parameter gradients are untouched
  kParamsOnly,  ///< parameter gradients only; grad_in is left untouched
};

/// Sets the calling thread's GradMode for the guard's lifetime. Layers
/// read the mode once, at the top of backward_into on the calling
/// thread: parallel_for chunks may run on other threads, which keep
/// their own mode.
class ScopedGradMode {
 public:
  explicit ScopedGradMode(GradMode mode) : saved_(current_) {
    current_ = mode;
  }
  ~ScopedGradMode() { current_ = saved_; }
  ScopedGradMode(const ScopedGradMode&) = delete;
  ScopedGradMode& operator=(const ScopedGradMode&) = delete;

  /// The calling thread's mode (kFull outside every guard).
  static GradMode current() { return current_; }

 private:
  static inline thread_local GradMode current_ = GradMode::kFull;
  GradMode saved_;
};

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/// Abstract NN layer (see file comment for the forward/backward contract).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the activation for a batch into `out` (reused across
  /// calls); caches state for backward. `out` must not alias `x`.
  virtual void forward_into(const Tensor& x, Tensor& out, bool training) = 0;

  /// Back-propagates: accumulates parameter gradients and writes the
  /// gradient with respect to the layer input into `grad_in` (reused
  /// across calls), either of which the GradMode may skip. `grad_in`
  /// must not alias `grad_out`.
  virtual void backward_into(const Tensor& grad_out, Tensor& grad_in) = 0;

  /// A copy with this layer's configuration, parameters and state but no
  /// caches, or nullptr when the layer cannot be copied (the default).
  virtual LayerPtr clone() const { return nullptr; }

  /// Value-returning convenience wrapper over forward_into.
  Tensor forward(const Tensor& x, bool training) {
    Tensor out;
    forward_into(x, out, training);
    return out;
  }

  /// Value-returning convenience wrapper over backward_into.
  Tensor backward(const Tensor& grad_out) {
    Tensor grad_in;
    backward_into(grad_out, grad_in);
    return grad_in;
  }

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the lifetime of the layer.
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Gradient buffers, aligned index-for-index with parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Non-trainable persistent state the layer needs at inference (e.g.
  /// BatchNorm running statistics). Unlike forward caches this state is
  /// part of what a trained model IS, so model_io serializes it next to
  /// the parameters. Empty for stateless layers.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  /// Zeroes all gradient buffers.
  virtual void zero_grad() {
    for (Tensor* g : gradients()) g->fill(0.0f);
  }

  /// Releases persistent scratch/cache buffers (they regrow on the next
  /// forward). Lets long-lived models shed memory when idle; also used
  /// by benches to measure the cost of cold-buffer execution.
  virtual void release_buffers() { cache_valid_ = false; }

  /// Human-readable layer name (for model summaries and serialization).
  virtual std::string name() const = 0;

  /// Output shape for a given per-example input shape (no batch dim).
  virtual Shape output_shape(const Shape& input) const = 0;

 protected:
  /// Implementations call this at the end of forward_into: marks the
  /// backward cache as freshly written.
  void note_forward() { cache_valid_ = true; }

  /// Implementations call this at the start of backward_into: fails fast
  /// when the cache was never written or was already consumed by a
  /// previous backward (the silent-wrong-gradient hazard of the old
  /// API), then marks it consumed.
  void consume_cache(const char* layer) {
    SATD_EXPECT(cache_valid_,
                std::string(layer) +
                    " backward without a fresh forward (cache is missing, "
                    "stale, or already consumed)");
    cache_valid_ = false;
  }

 private:
  bool cache_valid_ = false;
};

}  // namespace satd::nn
