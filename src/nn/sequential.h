// Sequential model: an owned chain of layers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace satd::nn {

/// Feed-forward model composed of layers executed in order.
///
/// Owns its layers. Provides the two passes the rest of the library
/// needs: forward (logits for a batch) and backward (parameter-gradient
/// accumulation + dLoss/dInput, the quantity attacks consume).
class Sequential {
 public:
  Sequential() = default;

  /// Moves a layer onto the end of the chain; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Emplace-style helper: model.emplace<Dense>(784, 256, rng).
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Runs the full forward pass. `training` enables train-only layers.
  /// Value-returning wrapper over forward_into (allocates the result).
  Tensor forward(const Tensor& x, bool training = false);

  /// Back-propagates from dLoss/dLogits; accumulates parameter gradients
  /// in every layer and returns dLoss/dInput. Wrapper over backward_into.
  Tensor backward(const Tensor& grad_logits);

  /// Allocation-free forward: intermediate activations flow through a
  /// persistent tape reused across batches; the logits land in `out`
  /// (resized on shape change, reused otherwise). `out` must not alias
  /// `x` or a tensor the model caches.
  void forward_into(const Tensor& x, Tensor& out, bool training = false);

  /// Allocation-free backward: intermediate gradients flow through a
  /// persistent tape; dLoss/dInput lands in `grad_in`. `grad_in` must
  /// not alias `grad_logits`.
  void backward_into(const Tensor& grad_logits, Tensor& grad_in);

  /// The update pass's backward when nothing reads dLoss/dInput:
  /// accumulates parameter gradients bit-identical to backward_into's.
  /// The first layer with parameters runs under GradMode::kParamsOnly,
  /// and the layers below it, which have no parameters, do not run.
  void backward_params(const Tensor& grad_logits);

  /// `count` private copies of this model, for running independent
  /// examples on other threads. Each call re-copies the parameters and
  /// state tensors into them, so they compute exactly what the model
  /// would. They are built on first use with no buffers, and
  /// release_buffers() drops them. Returns an empty span when some layer
  /// cannot clone. The span is valid until the next call.
  std::span<Sequential> replicas(std::size_t count);

  /// Releases every layer's scratch plus both tapes and the replicas
  /// (all regrow on the next pass). For idle models and cold-buffer
  /// benchmarking.
  void release_buffers();

  /// All trainable parameters / their gradient buffers, in layer order.
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();

  /// Non-trainable persistent layer state (BatchNorm running statistics
  /// and the like), in layer order; serialized alongside parameters.
  std::vector<Tensor*> state_tensors();

  /// Total number of trainable scalars.
  std::size_t parameter_count() const;

  /// Zeroes every gradient buffer.
  void zero_grad();

  /// Per-example output shape for a given per-example input shape;
  /// validates the whole chain.
  Shape output_shape(const Shape& input) const;

  /// Multi-line human-readable structure summary.
  std::string summary(const Shape& input) const;

 private:
  /// Runs backward through layers [first + 1, n) and returns the
  /// gradient with respect to layer `first`'s output.
  const Tensor& backward_down_to(const Tensor& grad_logits,
                                 std::size_t first);

  std::vector<LayerPtr> layers_;
  // Persistent inter-layer buffers: act_tape_[i] holds the output of
  // layer i (the last layer writes the caller's `out`), grad_tape_[i]
  // holds dLoss/d(input of layer i+1) (layer 0 writes the caller's
  // `grad_in`). Sized on first use, reused across batches.
  std::vector<Tensor> act_tape_;
  std::vector<Tensor> grad_tape_;
  std::vector<Sequential> replicas_;
};

}  // namespace satd::nn
