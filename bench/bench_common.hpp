// Shared plumbing for the paper-reproduction benches.
//
// Every bench prints the paper's reference numbers (where the paper gives
// them) next to our measured values, and optionally dumps CSV via --csv=.
// Benches accept:
//   --epochs=<double>   functional training length   (default per bench)
//   --iters=<int>       cost-only iterations/worker   (default per bench)
//   --max-workers=<int> cap the worker sweep          (default 24)
//   --seeds=<int>       replicates per cell, reported as mean +/- std
//   --csv=<path>        also write the table as CSV
//   --metrics=<prefix>  per-run observability dumps: <prefix>-<tag>.jsonl,
//                       <prefix>-<tag>.csv and <prefix>-<tag>.trace.json
//   --cache=<dir>       campaign result cache (campaign benches; ""=off)
//   --timing-json=<path> write runner-thread A/B wall-clock timings (JSON)
//   --quick             quarter-length run for smoke testing
// A bench that parses flags of its own names them to BenchArgs::parse, which
// then skips them instead of warning "unknown argument".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "core/trainer.hpp"

namespace dt::bench {

struct BenchArgs {
  double epochs = 30.0;
  std::int64_t iters = 30;
  int max_workers = 24;
  int seeds = 1;
  bool quick = false;
  std::string csv;
  std::string metrics_prefix;
  std::string cache = "dt-campaign-cache";
  std::string timing_json;

  /// `own_flags` are the bench's own flags: one ending in '=' matches any
  /// argument it prefixes, any other only itself.
  static BenchArgs parse(int argc, char** argv, double default_epochs,
                         std::int64_t default_iters,
                         std::initializer_list<std::string_view> own_flags = {}) {
    BenchArgs args;
    args.epochs = default_epochs;
    args.iters = default_iters;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value_of = [&a](const std::string& key) -> std::optional<std::string> {
        if (a.rfind(key, 0) == 0) return a.substr(key.size());
        return std::nullopt;
      };
      if (auto v = value_of("--epochs=")) {
        args.epochs = std::stod(*v);
      } else if (auto v = value_of("--iters=")) {
        args.iters = std::stoll(*v);
      } else if (auto v = value_of("--max-workers=")) {
        args.max_workers = std::stoi(*v);
      } else if (auto v = value_of("--seeds=")) {
        args.seeds = std::max(1, std::stoi(*v));
      } else if (auto v = value_of("--csv=")) {
        args.csv = *v;
      } else if (auto v = value_of("--metrics=")) {
        args.metrics_prefix = *v;
      } else if (auto v = value_of("--cache=")) {
        args.cache = *v;
      } else if (auto v = value_of("--timing-json=")) {
        args.timing_json = *v;
      } else if (a == "--quick") {
        args.quick = true;
      } else if (std::none_of(own_flags.begin(), own_flags.end(),
                              [&a](std::string_view f) {
                                return f.ends_with('=') ? a.starts_with(f)
                                                        : a == f;
                              })) {
        std::cerr << "unknown argument: " << a << "\n";
      }
    }
    if (args.quick) {
      args.epochs /= 4.0;
      args.iters = std::max<std::int64_t>(4, args.iters / 4);
    }
    return args;
  }
};

/// The paper's functional benchmark substitution (see DESIGN.md): an MLP on
/// the teacher-student task, timed/sized as ResNet-50 on TITAN V VMs.
inline core::Workload paper_functional_workload(int workers,
                                                std::uint64_t seed = 42) {
  core::FunctionalWorkloadSpec spec;
  spec.num_workers = workers;
  spec.seed = seed;
  return core::make_functional_workload(spec);
}

/// The paper's accuracy-experiment configuration: 6 VMs x 4 workers,
/// 56 Gbps, momentum 0.9, wd 1e-4, warm-up + step-decay schedule. The
/// per-worker base LR is 0.004 (substitution: stable for the small
/// functional model; the schedule shape follows Goyal et al. exactly).
inline core::TrainConfig paper_accuracy_config(core::Algo algo, int workers,
                                               double epochs) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.epochs = epochs;
  cfg.lr = nn::LrSchedule::paper(workers, epochs, 0.004);
  cfg.cluster.workers_per_machine = 4;
  cfg.cluster.nic_gbps = 56.0;
  cfg.opt.ps_shards_per_machine = 2;  // the paper's profiled PS:worker ratio
  cfg.ssp_staleness = 10;
  cfg.easgd_tau = 8;
  cfg.gosgd_p = 0.01;
  cfg.seed = 42;
  return cfg;
}

/// Cost-only (throughput) configuration for the scalability experiments.
inline core::TrainConfig paper_throughput_config(core::Algo algo, int workers,
                                                 double nic_gbps,
                                                 std::int64_t iters) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.cluster.workers_per_machine = 4;
  cfg.cluster.nic_gbps = nic_gbps;
  cfg.opt.ps_shards_per_machine = 2;
  cfg.opt.wait_free_bp = true;  // the paper's scalability runs use
                                // sharding + wait-free BP (Section VI-C)
  cfg.iterations = iters;
  cfg.seed = 42;
  return cfg;
}

/// Turns on the observability outputs for one bench run when --metrics= was
/// given: metric dump, sampled time series, and a Chrome trace, all under
/// `<prefix>-<tag>.*`. `tag` should identify the run within the sweep
/// (e.g. "resnet50-56G-bsp").
inline void enable_observability(core::TrainConfig& cfg,
                                 const BenchArgs& args,
                                 const std::string& tag) {
  if (args.metrics_prefix.empty()) return;
  const std::string base = args.metrics_prefix + "-" + tag;
  cfg.metrics_jsonl = base + ".jsonl";
  cfg.timeseries_csv = base + ".csv";
  cfg.trace_path = base + ".trace.json";
}

/// Mean and sample standard deviation of one metric across seed replicates.
struct SeedStats {
  double mean = 0.0;
  double stddev = 0.0;
  int n = 0;

  /// "0.7123" for n=1, "0.7123 +/- 0.0042" for n>1.
  [[nodiscard]] std::string fmt(int precision = 4) const {
    std::string out = common::fmt(mean, precision);
    if (n > 1) out += " +/- " + common::fmt(stddev, precision);
    return out;
  }
};

/// Runs `metric(seed)` for seeds base..base+n-1 and aggregates (the legacy
/// benches' --seeds support; the campaign engine's `replicates` is the same
/// fan-out done declaratively).
template <typename F>
SeedStats sweep_seeds(int n, std::uint64_t base_seed, F&& metric) {
  SeedStats stats;
  stats.n = n;
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    values.push_back(metric(base_seed + static_cast<std::uint64_t>(i)));
  }
  for (double v : values) stats.mean += v;
  stats.mean /= n;
  if (n > 1) {
    double ss = 0.0;
    for (double v : values) ss += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(ss / (n - 1));
  }
  return stats;
}

inline void emit(const common::Table& table, const BenchArgs& args) {
  table.print(std::cout);
  if (!args.csv.empty()) {
    table.save_csv(args.csv);
    std::cout << "(csv written to " << args.csv << ")\n";
  }
  std::cout << std::endl;
}

}  // namespace dt::bench
