#include "nn/sequential.h"

#include <algorithm>
#include <sstream>

#include "common/contract.h"

namespace satd::nn {

namespace {
void copy_values(const std::vector<Tensor*>& from,
                 const std::vector<Tensor*>& to) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    std::copy(from[i]->raw(), from[i]->raw() + from[i]->numel(),
              to[i]->raw());
  }
}
}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  SATD_EXPECT(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  replicas_.clear();  // they copy the old chain
  return *this;
}

Layer& Sequential::layer(std::size_t i) {
  SATD_EXPECT(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  SATD_EXPECT(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  Tensor out;
  forward_into(x, out, training);
  return out;
}

Tensor Sequential::backward(const Tensor& grad_logits) {
  Tensor grad_in;
  backward_into(grad_logits, grad_in);
  return grad_in;
}

void Sequential::forward_into(const Tensor& x, Tensor& out, bool training) {
  SATD_EXPECT(!layers_.empty(), "forward on empty model");
  if (act_tape_.size() + 1 != layers_.size()) {
    act_tape_.resize(layers_.size() - 1);
  }
  const Tensor* h = &x;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    layers_[i]->forward_into(*h, act_tape_[i], training);
    h = &act_tape_[i];
  }
  layers_.back()->forward_into(*h, out, training);
}

const Tensor& Sequential::backward_down_to(const Tensor& grad_logits,
                                           std::size_t first) {
  SATD_EXPECT(!layers_.empty(), "backward on empty model");
  if (grad_tape_.size() + 1 != layers_.size()) {
    grad_tape_.resize(layers_.size() - 1);
  }
  const Tensor* g = &grad_logits;
  for (std::size_t i = layers_.size(); i-- > first + 1;) {
    layers_[i]->backward_into(*g, grad_tape_[i - 1]);
    g = &grad_tape_[i - 1];
  }
  return *g;
}

void Sequential::backward_into(const Tensor& grad_logits, Tensor& grad_in) {
  const Tensor& g = backward_down_to(grad_logits, 0);
  layers_.front()->backward_into(g, grad_in);
}

void Sequential::backward_params(const Tensor& grad_logits) {
  std::size_t first = 0;
  while (first + 1 < layers_.size() && layers_[first]->parameters().empty()) {
    ++first;
  }
  const Tensor& g = backward_down_to(grad_logits, first);
  const ScopedGradMode params_only(GradMode::kParamsOnly);
  Tensor unread;  // stays empty: the layer skips its input gradient
  layers_[first]->backward_into(g, unread);
}

std::span<Sequential> Sequential::replicas(std::size_t count) {
  while (replicas_.size() < count) {
    Sequential copy;
    for (const auto& l : layers_) {
      LayerPtr c = l->clone();
      if (c == nullptr) return {};
      copy.layers_.push_back(std::move(c));
    }
    replicas_.push_back(std::move(copy));
  }
  const auto params = parameters();
  const auto state = state_tensors();
  for (std::size_t r = 0; r < count; ++r) {
    copy_values(params, replicas_[r].parameters());
    copy_values(state, replicas_[r].state_tensors());
  }
  return {replicas_.data(), count};
}

void Sequential::release_buffers() {
  for (auto& l : layers_) l->release_buffers();
  act_tape_.clear();
  act_tape_.shrink_to_fit();
  grad_tape_.clear();
  grad_tape_.shrink_to_fit();
  replicas_.clear();
  replicas_.shrink_to_fit();
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* g : l->gradients()) out.push_back(g);
  }
  return out;
}

std::vector<Tensor*> Sequential::state_tensors() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* s : l->state_tensors()) out.push_back(s);
  }
  return out;
}

std::size_t Sequential::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    for (Tensor* p : const_cast<Layer&>(*l).parameters()) n += p->numel();
  }
  return n;
}

void Sequential::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

std::string Sequential::summary(const Shape& input) const {
  std::ostringstream ss;
  Shape s = input;
  ss << "Sequential {\n";
  for (const auto& l : layers_) {
    s = l->output_shape(s);
    ss << "  " << l->name() << " -> " << s.to_string() << "\n";
  }
  ss << "} params=" << parameter_count() << "\n";
  return ss.str();
}

}  // namespace satd::nn
