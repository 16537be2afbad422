// Declarative experiment specification, loadable from an INI file — the
// substrate of the `dtrain` command-line runner (examples/dtrain.cpp).
//
// Example configuration:
//
//   [experiment]
//   algorithm = adpsgd        ; bsp asp ssp dssp easgd arsgd gosgd adpsgd
//                             ; dpsgd fsdp
//   mode      = functional    ; functional (accuracy) | throughput
//   workers   = 8
//   epochs    = 15            ; functional mode
//   iterations = 30           ; throughput mode
//   seed      = 42
//
//   [cluster]
//   workers_per_machine = 4
//   nic_gbps = 56
//
//   [optimizations]
//   ps_shards_per_machine = 2
//   wait_free_bp = true
//   dgc = false
//   qsgd_bits = 0
//   zero_stage = 1            ; fsdp: 1 opt | 2 +grads | 3 +params sharded
//
//   [hyperparameters]
//   ssp_staleness = 10
//   dssp_s_min = 1
//   dssp_s_max = 10
//   dssp_window = 2.0
//   easgd_tau = 8
//   gosgd_p = 0.01
//   lr_per_worker = 0.004
//   momentum = 0.9
//
//   [workload]
//   model = resnet50          ; resnet50 | vgg16 (timing / cost profile)
//   batch = 128               ; throughput batch
//   train_samples = 6144      ; functional-mode dataset knobs
//   non_iid = false
//
//   [runtime]
//   compute_threads = 0       ; host threads for compute offload (0 = auto;
//                             ; never changes simulated results)
//   host_metrics = false
//
//   [failures]                ; deterministic fault plan (docs/faults.md)
//   straggler_rank = -1       ; legacy alias for slow_ranks = R:F
//   straggler_slowdown = 1.0
//   slow_ranks =              ; rank:factor, rank:factor, ...
//   transient_rank = -1       ; seeded transient slowdown windows
//   transient_rate = 0.05     ; expected windows per virtual second
//   transient_factor = 4.0    ; compute multiplier inside a window
//   transient_duration_mu = 0.0     ; lognormal log-median duration
//   transient_duration_sigma = 0.5
//   transient_horizon = 600   ; generate windows up to this vtime
//   link_windows =            ; machine:start:end:bw_mult[:lat_mult], ...
//   crashes =                 ; rank:at:downtime, ...
//   crash_rank = -1           ; singular spelling of one crash
//   crash_time = 0.0
//   crash_downtime = 1.0
//   sync_policy = stall       ; stall | drop (crashed-member round handling)
//   recovery = pull           ; pull | checkpoint
//   checkpoint_period = 0     ; vseconds between snapshots (checkpoint)
//   ps_crashes =              ; shard:at, ... (fail-stop; needs replicate_ps)
//   loss_prob = 0.0           ; seeded message faults on lossy machines
//   dup_prob = 0.0
//   reorder_prob = 0.0
//   reorder_window = 0.0      ; max extra delay (vseconds) of a reordered
//                             ; packet; must be > 0 when reorder_prob > 0
//   lossy_machines =          ; machine ids the faults apply to (empty = all)
//
//   [reliability]             ; reliable transport (docs/network-model.md)
//   timeout = 0.05            ; initial retransmit timeout (vseconds)
//   backoff = 2.0             ; exponential backoff factor
//   max_timeout = 1.0         ; backoff cap (vseconds)
//   max_retransmits = 10      ; budget before a typed TimeoutError
//   replicate_ps = false      ; primary-backup PS shards + failover
//   local_step_budget = 0     ; ASP local steps while a primary is down
//
//   [membership]              ; failure detector + views (docs/faults.md)
//   enabled = false           ; run the detector on any crash run (auto-on
//                             ; for AR-SGD/D-PSGD drop with crashes)
//   period = 0.05             ; heartbeat period (vseconds)
//   suspect_timeout = 0.25    ; silence before a rank is suspected
//   confirm = 0.1             ; extra silence before eviction (refutation
//                             ; window for slow-but-alive ranks)
//
//   [memory]                  ; per-rank ledger (docs/memory-model.md)
//   gauges = false            ; export mem.* gauges + trace counters for any
//                             ; algorithm (fsdp always engages them)
//
//   [output]
//   trace = /tmp/run.trace.json
#pragma once

#include <string>
#include <vector>

#include "common/ini.hpp"
#include "core/config.hpp"
#include "core/workload.hpp"

namespace dt::core {

/// Parses "bsp", "adpsgd", "AD-PSGD", ... (case-insensitive, '-' ignored).
[[nodiscard]] Algo algo_from_name(const std::string& name);

/// The strict-validation registry: every `[section]` and key that
/// ExperimentSpec::from_ini understands. A config containing any other
/// section or key is rejected naming the offender — a typo must not
/// silently yield a default-valued run. The campaign engine also uses this
/// schema to resolve bare axis keys ("workers") to their section.
struct IniSectionSchema {
  std::string name;
  std::vector<std::string> keys;
};
[[nodiscard]] const std::vector<IniSectionSchema>& experiment_ini_schema();

/// True when `[section] key` is in the schema.
[[nodiscard]] bool experiment_ini_known(const std::string& section,
                                        const std::string& key);

/// Resolves a bare key to the unique section containing it; fails with a
/// common::Error when the key is unknown. (Every key in the schema lives in
/// exactly one section.)
[[nodiscard]] std::string experiment_section_of(const std::string& key);

/// Rejects unknown sections and unknown keys in known sections. Called by
/// from_ini; exposed so tools validating a config without building a spec
/// (e.g. the campaign expander) can reuse it. A `[campaign]` section is
/// reported with a hint to run `dtrain --campaign`.
void validate_experiment_ini(const common::IniConfig& ini);

struct ExperimentSpec {
  TrainConfig config;
  bool functional = true;
  std::string model = "resnet50";  // cost profile for either mode
  std::int64_t batch = 128;        // throughput-mode batch
  FunctionalWorkloadSpec workload;

  static ExperimentSpec from_ini(const common::IniConfig& ini);

  /// Builds the workload this spec describes.
  [[nodiscard]] Workload make_workload() const;
};

}  // namespace dt::core
