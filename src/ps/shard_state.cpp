#include "ps/shard_state.hpp"

#include "common/error.hpp"
#include "core/workload.hpp"
#include "tensor/ops.hpp"

namespace dt::ps {

using tensor::Tensor;

ShardState::ShardState(const ShardingPlan& plan, int shard,
                       const core::Workload& wl, nn::SgdConfig sgd)
    : shard_(shard), optimizer_(sgd) {
  common::check(shard >= 0 && shard < plan.num_shards,
                "ShardState: bad shard index");
  slots_ = plan.shard_slots[static_cast<std::size_t>(shard)];
  versions_.assign(slots_.size(), 0);
  for (std::size_t local = 0; local < slots_.size(); ++local) {
    slot_to_local_[slots_[local]] = local;
    bytes_ += wl.slot_wire_bytes(slots_[local]);
  }
  if (wl.functional()) {
    const auto& init = wl.initial_params();
    for (std::size_t slot : slots_) {
      params_.push_back(init.at(slot));
      accum_.emplace_back(init.at(slot).shape());
    }
  }
}

std::size_t ShardState::local_index(std::size_t slot) const {
  auto it = slot_to_local_.find(slot);
  common::check(it != slot_to_local_.end(),
                "ShardState: slot not owned by this shard");
  return it->second;
}

void ShardState::check_local(std::size_t local) const {
  common::check(functional(), "ShardState: functional op in cost-only mode");
  common::check(local < params_.size(), "ShardState: bad local index");
}

const Tensor& ShardState::param(std::size_t local) const {
  check_local(local);
  return params_[local];
}

void ShardState::apply_dense(std::size_t local, std::span<const float> grad,
                             float lr, float scale) {
  check_local(local);
  if (scale == 1.0f) {
    optimizer_.step_slot(local, params_[local].data(), grad, lr);
    return;
  }
  std::vector<float> scaled(grad.begin(), grad.end());
  for (float& v : scaled) v *= scale;
  optimizer_.step_slot(local, params_[local].data(), scaled, lr);
}

void ShardState::apply_sparse(std::size_t local,
                              std::span<const std::uint32_t> indices,
                              std::span<const float> values, float lr,
                              float scale) {
  check_local(local);
  common::check(indices.size() == values.size(),
                "ShardState::apply_sparse: ragged input");
  Tensor dense(params_[local].shape());
  auto d = dense.data();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    common::check(indices[j] < d.size(), "ShardState: sparse index range");
    d[indices[j]] += values[j] * scale;
  }
  optimizer_.step_slot(local, params_[local].data(), dense.data(), lr);
}

void ShardState::accumulate_dense(std::size_t local,
                                  std::span<const float> grad) {
  check_local(local);
  tensor::axpy(1.0f, grad, accum_[local].data());
}

void ShardState::accumulate_sparse(std::size_t local,
                                   std::span<const std::uint32_t> indices,
                                   std::span<const float> values) {
  check_local(local);
  common::check(indices.size() == values.size(),
                "ShardState::accumulate_sparse: ragged input");
  auto d = accum_[local].data();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    common::check(indices[j] < d.size(), "ShardState: sparse index range");
    d[indices[j]] += values[j];
  }
}

Tensor ShardState::take_accumulated(std::size_t local) {
  check_local(local);
  Tensor out = accum_[local];
  accum_[local].fill(0.0f);
  return out;
}

Tensor& ShardState::stage_slot(std::size_t local, int rank) {
  check_local(local);
  common::check(rank >= 0, "ShardState: negative staging rank");
  if (staged_.empty()) {
    staged_.resize(params_.size());
    staged_set_.resize(params_.size());
  }
  auto& stage = staged_[local];
  auto& set = staged_set_[local];
  const auto r = static_cast<std::size_t>(rank);
  if (r >= stage.size()) {
    stage.resize(r + 1);
    set.resize(r + 1, 0);
  }
  // Idempotent overwrite on a duplicate delivery.
  stage[r] = Tensor(params_[local].shape());
  set[r] = 1;
  return stage[r];
}

void ShardState::stage_dense(std::size_t local, int rank,
                             std::span<const float> grad) {
  check_local(local);
  common::check(grad.size() == params_[local].data().size(),
                "ShardState::stage_dense: size mismatch");
  Tensor& t = stage_slot(local, rank);
  std::copy(grad.begin(), grad.end(), t.data().begin());
}

void ShardState::stage_sparse(std::size_t local, int rank,
                              std::span<const std::uint32_t> indices,
                              std::span<const float> values) {
  common::check(indices.size() == values.size(),
                "ShardState::stage_sparse: ragged input");
  auto d = stage_slot(local, rank).data();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    common::check(indices[j] < d.size(), "ShardState: sparse index range");
    d[indices[j]] += values[j];
  }
}

std::size_t ShardState::staged_count(std::size_t local) const {
  check_local(local);
  if (staged_.empty()) return 0;
  std::size_t n = 0;
  for (char present : staged_set_[local]) n += present != 0 ? 1u : 0u;
  return n;
}

Tensor ShardState::take_staged_sum(std::size_t local) {
  check_local(local);
  common::check(!staged_.empty() && staged_count(local) > 0,
                "ShardState::take_staged_sum: nothing staged");
  Tensor out(params_[local].shape());
  auto& stage = staged_[local];
  auto& set = staged_set_[local];
  for (std::size_t r = 0; r < stage.size(); ++r) {
    if (set[r] == 0) continue;
    tensor::axpy(1.0f, stage[r].data(), out.data());
    stage[r] = Tensor{};
    set[r] = 0;
  }
  return out;
}

Tensor ShardState::elastic_exchange(std::size_t local,
                                    const Tensor& worker_param, float alpha) {
  check_local(local);
  common::check(worker_param.shape() == params_[local].shape(),
                "ShardState::elastic_exchange: shape mismatch");
  Tensor updated = worker_param;
  auto center = params_[local].data();
  auto w_in = worker_param.data();
  auto w_out = updated.data();
  for (std::size_t j = 0; j < center.size(); ++j) {
    const float diff = w_in[j] - center[j];
    w_out[j] = w_in[j] - alpha * diff;
    center[j] += alpha * diff;
  }
  return updated;
}

}  // namespace dt::ps
