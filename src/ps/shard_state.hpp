// PS-shard-side parameter and optimizer state.
//
// A ShardState owns the global parameters of the slots assigned to one PS
// shard (functional mode) plus its slice of the momentum-SGD state. The
// protocol is per-slot (one packet per layer), so the API is per-slot too:
// the shard looks up the local index of an incoming slot and applies /
// accumulates / exchanges just that tensor. In cost-only mode no tensors
// exist and only the byte bookkeeping is available.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "nn/optimizer.hpp"
#include "ps/sharding.hpp"
#include "tensor/tensor.hpp"

namespace dt::core {
class Workload;
}

namespace dt::ps {

class ShardState {
 public:
  /// `shard` selects this shard's slots from `plan`. When the workload is
  /// functional, parameters are initialized from its initial_params().
  ShardState(const ShardingPlan& plan, int shard, const core::Workload& wl,
             nn::SgdConfig sgd);

  [[nodiscard]] int shard() const noexcept { return shard_; }
  [[nodiscard]] const std::vector<std::size_t>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::size_t num_local() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool functional() const noexcept { return !params_.empty(); }

  /// Local index of a global slot id; fails if the slot is not ours.
  [[nodiscard]] std::size_t local_index(std::size_t slot) const;

  /// Per-slot update clock for the staleness probes: number of gradient
  /// updates applied to local slot `local` since the start of the run.
  /// The PS loops bump it at every apply (in both functional and cost-only
  /// mode); parameter replies carry it so workers can stamp their next
  /// gradient push with the version it was computed against.
  [[nodiscard]] std::int64_t version(std::size_t local) const {
    return versions_.at(local);
  }
  std::int64_t bump_version(std::size_t local) {
    return ++versions_.at(local);
  }

  /// Global parameters of local slot `local`.
  [[nodiscard]] const tensor::Tensor& param(std::size_t local) const;

  /// One momentum-SGD step on local slot `local` with `grad * scale`.
  void apply_dense(std::size_t local, std::span<const float> grad, float lr,
                   float scale);

  /// Same with a sparse (DGC) gradient.
  void apply_sparse(std::size_t local, std::span<const std::uint32_t> indices,
                    std::span<const float> values, float lr, float scale);

  /// BSP gather: sums contributions; take_accumulated returns & clears.
  void accumulate_dense(std::size_t local, std::span<const float> grad);
  void accumulate_sparse(std::size_t local,
                         std::span<const std::uint32_t> indices,
                         std::span<const float> values);
  [[nodiscard]] tensor::Tensor take_accumulated(std::size_t local);

  /// Replicated-BSP gather (see docs/faults.md, "PS-shard crashes"): each
  /// rank's round contribution is staged in its own buffer (idempotent —
  /// a re-pushed duplicate after failover just overwrites bitwise-equal
  /// data) and the round sum is taken in canonical rank order, so the
  /// result is independent of arrival order and a failover run's
  /// parameters match a no-crash run's bit for bit.
  void stage_dense(std::size_t local, int rank, std::span<const float> grad);
  /// Same with a sparse (DGC) contribution, scattered into a dense stage.
  void stage_sparse(std::size_t local, int rank,
                    std::span<const std::uint32_t> indices,
                    std::span<const float> values);
  [[nodiscard]] std::size_t staged_count(std::size_t local) const;
  /// Rank-order sum of every staged contribution; clears the stage.
  [[nodiscard]] tensor::Tensor take_staged_sum(std::size_t local);

  /// EASGD: center += alpha * (worker - center); returns the elastically
  /// updated worker tensor (worker - alpha * (worker - center_before)).
  [[nodiscard]] tensor::Tensor elastic_exchange(
      std::size_t local, const tensor::Tensor& worker_param, float alpha);

 private:
  void check_local(std::size_t local) const;
  /// The staging buffer of (local, rank), zeroed and marked present.
  tensor::Tensor& stage_slot(std::size_t local, int rank);

  int shard_;
  std::vector<std::size_t> slots_;
  std::unordered_map<std::size_t, std::size_t> slot_to_local_;
  std::uint64_t bytes_ = 0;
  std::vector<std::int64_t> versions_;  // per local slot, see version()
  std::vector<tensor::Tensor> params_;  // shard-local order
  std::vector<tensor::Tensor> accum_;   // BSP sum buffers
  /// Replicated-BSP stage: staged_[local][rank] once stage_dense touches
  /// the slot (lazily sized to the largest staging rank + 1).
  std::vector<std::vector<tensor::Tensor>> staged_;
  std::vector<std::vector<char>> staged_set_;  // parallel presence flags
  nn::MomentumSgd optimizer_;
};

}  // namespace dt::ps
