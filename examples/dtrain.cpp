// dtrain: run any experiment described by an INI configuration file.
//
//   dtrain <config.ini>          run the experiment, print a report
//   dtrain --profile <config.ini>
//                                also run the critical-path profiler: print
//                                the bottleneck report and write the span
//                                log (JSONL + Chrome trace) next to the
//                                config unless [output] names paths
//   dtrain --campaign <config.ini>
//                                expand the [campaign] section into a run
//                                matrix, execute it (cached, parallel), and
//                                print the replicate-aggregated table
//   dtrain --campaign --force <config.ini>
//                                ignore cached results, re-run everything
//   dtrain --validate <config.ini>
//                                dry run: parse and strictly validate the
//                                config (single-run or campaign), print the
//                                resolved settings, exit without simulating
//   dtrain --template            print a documented template config
//   dtrain --log-level=LEVEL <config.ini>
//                                override verbosity (debug|info|warn|error)
//
// See core/experiment.hpp for the single-run key reference and
// campaign/spec.hpp + docs/campaigns.md for the [campaign] section.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/runner.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "profile/critical_path.hpp"

namespace {

constexpr const char* kTemplate = R"ini(# dtrain experiment configuration
[experiment]
algorithm = adpsgd        ; bsp asp ssp dssp easgd arsgd gosgd adpsgd dpsgd fsdp
mode      = functional    ; functional (accuracy) | throughput
workers   = 8
epochs    = 15            ; functional mode
iterations = 30           ; throughput mode
seed      = 42
target_loss = 0           ; >0: record time-to-target-loss (campaign metric)

[cluster]
workers_per_machine = 4
nic_gbps = 56
latency_us = 50

[optimizations]
ps_shards_per_machine = 2
wait_free_bp = true
dgc = false
qsgd_bits = 0             ; 0 = off; 2..8 = QSGD quantization
shard_policy = round_robin ; or greedy
zero_stage = 1            ; fsdp: 1 = optimizer sharded, 2 = + gradients,
                          ; 3 = + parameters (layer-wise gather/release)

[hyperparameters]
ssp_staleness = 10
dssp_s_min = 1            ; dssp: adaptive staleness-bound range
dssp_s_max = 10
dssp_window = 2.0         ; dssp: push-rate window (virtual seconds)
easgd_tau = 8
gosgd_p = 0.01
lr_per_worker = 0.004
momentum = 0.9
weight_decay = 0.0001

[workload]
model = resnet50          ; resnet50 | vgg16 (cost/timing profile)
batch = 128               ; throughput-mode batch
train_samples = 6144
test_samples = 1024
non_iid = false

[runtime]
compute_threads = 0       ; host threads for compute offload: 0 = auto
                          ; (DT_COMPUTE_THREADS env, else all cores);
                          ; results are identical at any value
host_metrics = false      ; emit host.wall_seconds / host.compute_threads

[failures]                ; deterministic fault plan (docs/faults.md)
straggler_rank = -1       ; -1 = no straggler (alias for slow_ranks)
straggler_slowdown = 1.0
slow_ranks =              ; rank:factor, rank:factor, ... (persistent)
transient_rank = -1       ; -1 = off: seeded transient slowdown windows
transient_rate = 0.05     ; expected windows per virtual second
transient_factor = 4.0    ; compute multiplier inside a window
transient_duration_mu = 0.0     ; lognormal log-median duration (seconds)
transient_duration_sigma = 0.5
transient_horizon = 600   ; generate windows up to this virtual time
link_windows =            ; machine:start:end:bw_mult[:lat_mult], ...
crashes =                 ; rank:at:downtime, ...
crash_rank = -1           ; singular spelling of one crash
crash_time = 0.0
crash_downtime = 1.0
sync_policy = stall       ; stall | drop (crashed-member round handling)
recovery = pull           ; pull | checkpoint
checkpoint_period = 0     ; virtual seconds between snapshots
ps_crashes =              ; shard:at, ... (fail-stop; needs replicate_ps)
loss_prob = 0.0           ; seeded message faults on lossy machines
dup_prob = 0.0
reorder_prob = 0.0
reorder_window = 0.0      ; max extra delay (vseconds) of a reordered
                          ; packet; must be > 0 when reorder_prob > 0
lossy_machines =          ; machine ids the faults hit (empty = all)

[reliability]             ; reliable transport (docs/network-model.md)
timeout = 0.05            ; initial retransmit timeout (vseconds)
backoff = 2.0             ; exponential backoff factor
max_timeout = 1.0         ; backoff cap (vseconds)
max_retransmits = 10      ; budget before a typed TimeoutError
replicate_ps = false      ; primary-backup PS shards + failover
local_step_budget = 0     ; ASP local steps while a primary is down

[membership]              ; failure detector + views (docs/faults.md)
enabled = false           ; detect crashes via heartbeats on any crash run
                          ; (auto-on for AR-SGD/D-PSGD drop with crashes)
period = 0.05             ; heartbeat period (vseconds)
suspect_timeout = 0.25    ; silence before a rank is suspected
confirm = 0.1             ; extra silence before eviction (refutation
                          ; window protects slow-but-alive ranks)

[memory]                  ; per-rank memory ledger (docs/memory-model.md)
gauges = false            ; export mem.current/peak gauges + trace counters
                          ; for any algorithm (fsdp always engages them)

[output]
trace =                   ; optional Chrome-tracing JSON path
metrics_jsonl =           ; optional end-of-run metric dump (JSONL)
timeseries_csv =          ; optional sampled counter/gauge series (CSV)
sample_period = 0.25      ; virtual seconds between samples
log_level =               ; debug | info | warn | error (default warn)
profile = false           ; critical-path profiler (or dtrain --profile)
profile_spans =           ; optional span-log JSONL path (implies profile)
profile_trace =           ; optional span Chrome-trace path (implies profile)
)ini";

/// `dtrain --campaign`: expand, execute (cached + parallel), aggregate.
int run_campaign_mode(const std::string& path, bool force) {
  using namespace dt;
  const common::IniConfig ini = common::IniConfig::load(path);
  const campaign::CampaignSpec spec = campaign::CampaignSpec::from_ini(ini);

  campaign::CampaignOptions opts;
  opts.force = force;
  opts.on_run_done = [](const campaign::RunSpec& run,
                        const campaign::RunRecord& rec) {
    std::cerr << "  [" << run.index << "] " << run.tag()
              << (rec.from_cache ? " (cached)" : "") << "\n";
  };

  std::cerr << "campaign " << spec.name << ": " << spec.num_cells()
            << " cells x " << spec.replicates << " replicates...\n";
  const campaign::CampaignResult result = campaign::run_campaign(spec, opts);

  const campaign::Aggregate agg = campaign::Aggregate::build(
      result.records, spec.metric, result.functional);
  agg.to_table("campaign " + spec.name).print(std::cout);
  if (!spec.chart_axis.empty()) {
    agg.to_chart("campaign " + spec.name, spec.chart_axis).print(std::cout);
  }
  if (!spec.output_dir.empty()) {
    campaign::write_outputs(spec.output_dir, "campaign " + spec.name,
                            result.records, agg);
    std::cout << "results written to " << spec.output_dir
              << "/{runs.jsonl,runs.csv,aggregate.csv,aggregate.jsonl,"
                 "aggregate.md}\n";
  }
  // Machine-greppable summary (the CI smoke job asserts on these fields).
  std::cerr << "campaign " << spec.name << ": cells=" << spec.num_cells()
            << " replicates=" << spec.replicates
            << " runs=" << result.runs.size()
            << " cache_hits=" << result.cache_hits
            << " executed=" << result.executed
            << " runner_threads=" << result.runner_threads
            << " wall_s=" << common::fmt(result.wall_seconds, 2) << "\n";
  return 0;
}

/// Full validation of one resolved experiment config: the strict INI schema
/// pass inside from_ini, then Session construction, which fires every
/// cross-field check a real run performs (fault plan, reliability,
/// membership) — without spawning a single process.
dt::core::ExperimentSpec validate_experiment(const dt::common::IniConfig& ini) {
  using namespace dt;
  core::ExperimentSpec spec = core::ExperimentSpec::from_ini(ini);
  core::Workload workload = spec.make_workload();
  core::Session session(spec.config, workload);
  return spec;
}

/// `dtrain --validate`: dry-run parse + strict validation, resolved-config
/// report, no simulation.
int run_validate_mode(const std::string& path) {
  using namespace dt;
  const common::IniConfig ini = common::IniConfig::load(path);
  const std::vector<std::string> secs = ini.sections();
  const bool is_campaign =
      std::find(secs.begin(), secs.end(), "campaign") != secs.end();

  if (is_campaign) {
    const campaign::CampaignSpec spec = campaign::CampaignSpec::from_ini(ini);
    const std::vector<campaign::RunSpec> runs = spec.expand();
    // Replicates differ only by seed; validating one run per cell covers
    // every distinct configuration.
    for (const campaign::RunSpec& run : runs) {
      if (run.replicate != 0) continue;
      try {
        (void)validate_experiment(run.resolved);
      } catch (const std::exception& e) {
        std::cerr << "dtrain --validate: cell " << run.cell_key()
                  << " is invalid: " << e.what() << "\n";
        return 1;
      }
    }
    common::Table t("dtrain --validate: " + path);
    t.set_header({"setting", "value"});
    t.add_row({"campaign", spec.name});
    for (const campaign::Axis& axis : spec.axes) {
      std::string labels;
      for (const campaign::AxisValue& v : axis.values) {
        if (!labels.empty()) labels += ", ";
        labels += v.label;
      }
      t.add_row({"axis " + axis.name, labels});
    }
    t.add_row({"cells", std::to_string(spec.num_cells())});
    t.add_row({"replicates", std::to_string(spec.replicates)});
    t.add_row({"total runs", std::to_string(runs.size())});
    t.add_row({"metric", spec.metric});
    t.print(std::cout);
    std::cout << "config OK (" << spec.num_cells()
              << " cells validated, nothing run)\n";
    return 0;
  }

  const core::ExperimentSpec spec = validate_experiment(ini);
  const core::TrainConfig& cfg = spec.config;
  const faults::FaultConfig& fc = cfg.faults;
  const int wpm = cfg.cluster.workers_per_machine;
  const int machines = (cfg.num_workers + wpm - 1) / wpm;
  const bool ring_drop =
      (cfg.algo == core::Algo::arsgd || cfg.algo == core::Algo::dpsgd) &&
      fc.sync_policy == faults::SyncPolicy::drop && !fc.crashes.empty();

  common::Table t("dtrain --validate: " + path);
  t.set_header({"setting", "value"});
  t.add_row({"algorithm", core::algo_name(cfg.algo)});
  t.add_row({"mode", spec.functional ? "functional" : "throughput"});
  t.add_row({"model", spec.model});
  t.add_row({"workers", std::to_string(cfg.num_workers)});
  t.add_row({"machines", std::to_string(machines) + " (x" +
                             std::to_string(wpm) + " workers)"});
  if (spec.functional) {
    t.add_row({"epochs", common::fmt(cfg.epochs, 2)});
  } else {
    t.add_row({"iterations", std::to_string(cfg.iterations)});
  }
  t.add_row({"seed", std::to_string(cfg.seed)});
  t.add_row({"fault plan", fc.empty() ? "none"
                                      : std::to_string(fc.crashes.size()) +
                                            " crashes, " +
                                            std::to_string(
                                                fc.link_windows.size()) +
                                            " link windows" +
                                            (fc.msg.any() ? ", msg faults"
                                                          : "")});
  t.add_row({"sync_policy",
             fc.sync_policy == faults::SyncPolicy::drop ? "drop" : "stall"});
  t.add_row({"recovery", fc.recovery == faults::RecoveryMode::checkpoint
                             ? "checkpoint"
                             : "pull"});
  t.add_row({"reliable transport",
             cfg.reliability.engaged(fc) ? "engaged" : "off"});
  const bool detector = cfg.membership.enabled || ring_drop;
  std::string mem = detector ? (ring_drop ? "engaged (ring repair)"
                                          : "engaged")
                             : "off";
  if (detector) {
    mem += ": period=" + common::fmt(cfg.membership.period_s, 3) +
           " timeout=" + common::fmt(cfg.membership.timeout_s, 3) +
           " confirm=" + common::fmt(cfg.membership.confirm_s, 3);
  }
  t.add_row({"membership", mem});
  t.print(std::cout);
  std::cout << "config OK (nothing run)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dt;
  std::vector<std::string> positional;
  bool log_level_forced = false;
  bool campaign_mode = false;
  bool force = false;
  bool profile_mode = false;
  bool validate_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--template") {
      std::cout << kTemplate;
      return 0;
    }
    if (arg == "--campaign") {
      campaign_mode = true;
      continue;
    }
    if (arg == "--profile") {
      profile_mode = true;
      continue;
    }
    if (arg == "--validate") {
      validate_mode = true;
      continue;
    }
    if (arg == "--force") {
      force = true;
      continue;
    }
    if (arg.rfind("--log-level=", 0) == 0) {
      try {
        common::set_log_level(
            common::log_level_from_name(arg.substr(12)));
      } catch (const std::exception& e) {
        std::cerr << "dtrain: " << e.what() << "\n";
        return 2;
      }
      log_level_forced = true;
      continue;
    }
    positional.push_back(arg);
  }
  if (positional.size() != 1 || (force && !campaign_mode) ||
      (profile_mode && campaign_mode) ||
      (validate_mode && (campaign_mode || profile_mode || force))) {
    std::cerr << "usage: dtrain [--log-level=LEVEL] [--profile] <config.ini>"
                 " | dtrain --campaign [--force] <config.ini>"
                 " | dtrain --validate <config.ini>"
                 " | dtrain --template\n";
    return 2;
  }
  const std::string arg = positional.front();

  if (validate_mode) {
    try {
      return run_validate_mode(arg);
    } catch (const std::exception& e) {
      std::cerr << "dtrain: " << e.what() << "\n";
      return 1;
    }
  }

  if (campaign_mode) {
    try {
      return run_campaign_mode(arg, force);
    } catch (const std::exception& e) {
      std::cerr << "dtrain: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    const common::IniConfig ini = common::IniConfig::load(arg);
    const common::LogLevel cli_level = common::log_level();
    core::ExperimentSpec spec = core::ExperimentSpec::from_ini(ini);
    // The CLI flag outranks the config file's [output] log_level.
    if (log_level_forced) common::set_log_level(cli_level);
    if (profile_mode) {
      spec.config.profile = true;
      // Default span outputs land next to the config file.
      if (spec.config.profile_spans_jsonl.empty()) {
        spec.config.profile_spans_jsonl = arg + ".spans.jsonl";
      }
      if (spec.config.profile_trace.empty()) {
        spec.config.profile_trace = arg + ".trace.json";
      }
    }
    core::Workload workload = spec.make_workload();

    std::cerr << "running " << core::algo_name(spec.config.algo) << " with "
              << spec.config.num_workers << " workers ("
              << (spec.functional ? "functional" : "throughput")
              << " mode, " << spec.model << " profile)...\n";
    metrics::RunResult result = core::run_training(spec.config, workload);

    common::Table report("dtrain report: " + arg);
    report.set_header({"metric", "value"});
    report.add_row({"algorithm", result.algorithm});
    report.add_row({"workers", std::to_string(result.num_workers)});
    if (spec.functional) {
      report.add_row({"final accuracy", common::fmt(result.final_accuracy, 4)});
    }
    report.add_row({"virtual duration (s)",
                    common::fmt(result.virtual_duration, 2)});
    report.add_row({"throughput (samples/s)",
                    common::fmt(result.throughput(), 1)});
    report.add_row(
        {"network traffic (GB)",
         common::fmt(static_cast<double>(result.wire_bytes) / 1e9, 3)});
    report.add_row({"messages", std::to_string(result.wire_messages)});
    report.add_row(
        {"peak memory / rank (GB)",
         common::fmt(static_cast<double>(result.mem_peak_rank_bytes) / 1e9,
                     3)});
    for (int p = 0; p < metrics::kNumPhases; ++p) {
      const auto phase = static_cast<metrics::Phase>(p);
      report.add_row({std::string("mean ") + metrics::phase_name(phase) +
                          " time (s)",
                      common::fmt(result.mean_phase_time(phase), 3)});
    }
    report.print(std::cout);

    if (result.profile) {
      std::cout << "\n" << profile::format_report(*result.profile);
      if (!spec.config.profile_spans_jsonl.empty()) {
        std::cout << "spans written to " << spec.config.profile_spans_jsonl
                  << "\n";
      }
      if (!spec.config.profile_trace.empty()) {
        std::cout << "profile trace written to " << spec.config.profile_trace
                  << "\n";
      }
    }
    if (!spec.config.trace_path.empty()) {
      std::cout << "trace written to " << spec.config.trace_path << "\n";
    }
    if (!spec.config.metrics_jsonl.empty()) {
      std::cout << "metrics written to " << spec.config.metrics_jsonl << "\n";
    }
    if (!spec.config.timeseries_csv.empty()) {
      std::cout << "time series written to " << spec.config.timeseries_csv
                << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dtrain: " << e.what() << "\n";
    return 1;
  }
}
