// The benchmark's four workloads: their seed-derived configs and the fixed
// work of one repetition. Why each exists, and which layers it loads or
// bypasses, is in perfbench/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/spec.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "core/workload.hpp"

namespace pb {

// ---- shapes shared by the runs and the probes that serve them ----------
inline constexpr std::int64_t kCostBatch = 96;  // VGG-16 per-worker batch

inline constexpr int kPsWorkers = 512;
inline constexpr std::int64_t kPsIterations = 8;

inline constexpr int kRingWorkers = 128;
inline constexpr std::int64_t kRingIterations = 2;

inline constexpr int kFunctionalWorkers = 24;
inline constexpr double kFunctionalEpochs = 2.0;

inline constexpr int kCampaignWorkers = 32;
inline constexpr std::int64_t kCampaignIterations = 20;
inline constexpr int kCampaignReplicates = 3;

/// Message faults of every lossy-campaign cell (inter-machine links).
struct LossSettings {
  double loss_prob;
  double dup_prob;
  double reorder_prob;
  double reorder_window;  // virtual seconds
};
inline constexpr LossSettings kLoss{0.02, 0.02, 0.05, 0.002};

/// Cost-only paper throughput config (VGG-16, 56 Gbps, 2 PS shards per
/// machine, wait-free BP) for `algo` at `workers`, seeded with `seed`.
[[nodiscard]] dt::core::TrainConfig cost_config(dt::core::Algo algo,
                                                int workers,
                                                std::int64_t iterations,
                                                std::uint64_t seed);

/// The paper's functional substitute at kFunctionalWorkers, seeded.
[[nodiscard]] dt::core::FunctionalWorkloadSpec functional_spec(
    std::uint64_t seed);

/// bench::paper_accuracy_config at kFunctionalWorkers for kFunctionalEpochs,
/// seeded, with `ctx`'s offload width; `dgc` adds Table IV's DGC setting.
[[nodiscard]] dt::core::TrainConfig functional_config(dt::core::Algo algo,
                                                      bool dgc,
                                                      const Ctx& ctx);

/// The lossy campaign: BSP/ASP/SSP/DSSP x kCampaignReplicates at
/// kCampaignWorkers with loss, duplication, reordering, replicated PS
/// shards and one primary crash followed by failover.
[[nodiscard]] dt::campaign::CampaignSpec campaign_spec(std::uint64_t seed);

/// Called after a run with its Session and result (probes that need more
/// than RunOutcome carries).
using InspectFn = std::function<void(dt::core::Session&,
                                     const dt::metrics::RunResult&)>;

/// Builds (functional: from `spec`; else the VGG-16 cost workload), runs
/// and fingerprints one Session. `expected_samples` > 0 arms the sync-run
/// sample invariant.
[[nodiscard]] RunOutcome run_session(
    const std::string& label, const dt::core::TrainConfig& cfg,
    bool functional, const dt::core::FunctionalWorkloadSpec& spec,
    std::int64_t expected_samples, const InspectFn& inspect = {});

/// A fresh, empty directory under the benchmark's scratch directory.
[[nodiscard]] std::string fresh_dir(const Ctx& ctx, const std::string& stem);

/// One repetition of functional-paper-24w (the traced pass reruns it at
/// nproc compute threads for runtime.offload_speedup).
[[nodiscard]] RepResult functional_rep(const Ctx& ctx);

struct WorkloadDef {
  std::string name;
  std::string why;
  /// True when a repetition runs entirely on the calling thread (no
  /// compute or runner pool).
  bool serial;
  /// One repetition of the workload's fixed work.
  RepResult (*run)(const Ctx&);
  /// Layer probes and counters for the traced pass (see probes.hpp).
  /// Returns any extra simulation runs it made, for the oracle.
  std::vector<RunOutcome> (*layers)(const Ctx&, const RepResult&,
                                    LayerValues&);
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();

}  // namespace pb
