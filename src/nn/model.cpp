#include "nn/model.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dt::nn {

void Sequential::init(common::Rng& rng) {
  for (auto& layer : layers_) layer->init(rng);
}

const tensor::Tensor& Sequential::forward(const tensor::Tensor& input) {
  common::check(!layers_.empty(), "Sequential::forward on empty model");
  const tensor::Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->forward(*x);
  return *x;
}

void Sequential::backward(const tensor::Tensor& grad_output) {
  backward_with_hook(grad_output, {});
}

void Sequential::backward_with_hook(
    const tensor::Tensor& grad_output,
    const std::function<void(std::size_t, std::size_t)>& on_layer_grads) {
  common::check(!layers_.empty(), "Sequential::backward on empty model");
  // Slot index of each layer's first slot, for the hook.
  std::vector<std::size_t> first_slot(layers_.size());
  std::size_t acc = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    first_slot[i] = acc;
    acc += layers_[i]->params().size();
  }
  const tensor::Tensor* grad = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad = &layers_[i]->backward(*grad);
    const std::size_t count = layers_[i]->params().size();
    if (on_layer_grads && count > 0) on_layer_grads(first_slot[i], count);
  }
}

void Sequential::zero_grad() {
  for (ParamSlot* slot : slots()) slot->grad.fill(0.0f);
}

const std::vector<ParamSlot*>& Sequential::rebuild_slots() const {
  slots_cache_.clear();
  for (const auto& layer : layers_) {
    for (ParamSlot* slot : layer->params()) slots_cache_.push_back(slot);
  }
  return slots_cache_;
}

std::int64_t Sequential::num_params() const {
  std::int64_t n = 0;
  for (const ParamSlot* slot : slots()) n += slot->value.numel();
  return n;
}

std::vector<tensor::Tensor> Sequential::snapshot() const {
  std::vector<tensor::Tensor> out;
  out.reserve(slots().size());
  for (const ParamSlot* slot : slots()) out.push_back(slot->value);
  return out;
}

void Sequential::load(const std::vector<tensor::Tensor>& params) {
  const auto& s = slots();
  common::check(params.size() == s.size(), "Sequential::load: slot count");
  for (std::size_t i = 0; i < s.size(); ++i) {
    tensor::copy(params[i].data(), s[i]->value.data());
  }
}

std::vector<tensor::Tensor> Sequential::gradients() const {
  std::vector<tensor::Tensor> out;
  out.reserve(slots().size());
  for (const ParamSlot* slot : slots()) out.push_back(slot->grad);
  return out;
}

}  // namespace dt::nn
