// Shared types of the benchmark (see perfbench/README.md).
//
// The benchmark measures dtrainlib from the outside: every timing is taken
// around a call into the library's public API, and every simulated result
// is checked (by the oracle), never timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "metrics/metrics.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Default workload seed: the seed the oracle's pins were captured with.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Host seconds one simulation run (set-up included) may take before it
/// counts as failed.
inline constexpr double kRunBudgetS = 60.0;

/// What one invocation of the benchmark runs under.
struct Ctx {
  std::uint64_t seed = kDefaultSeed;
  int nproc = 1;            // host CPUs this process may use
  std::string out_dir;      // scratch directory (campaign caches, spans)
  /// Offload width; 0 = one thread for functional runs, nproc for cost-only.
  int compute_threads = 0;
};

/// One simulation run inside a repetition, reduced to what the benchmark
/// reports and checks.
struct RunOutcome {
  std::string label;        // unique within the workload, e.g. "bsp+dgc"
  std::string fingerprint;  // virtual-time fingerprint (oracle input)
  std::string error;        // non-empty: the run threw
  /// Invariant violations found by the workload itself (warm cache).
  std::vector<std::string> problems;
  std::int64_t samples = 0;
  /// Sync cost-only runs: workers x iterations x batch (0 = not checked).
  std::int64_t expected_samples = 0;
  double build_s = 0.0;  // workload build alone
  double setup_s = 0.0;  // workload build + Session constructor
  double run_s = 0.0;    // Session::run wall time
  double engine_s = 0.0;  // RunResult::host_wall_s (inside engine.run())
  std::uint64_t events = 0, wakes = 0, peak_ready = 0, processes = 0;
  std::uint64_t messages = 0, bytes = 0, inter_machine_bytes = 0;
  int compute_threads = 0;       // resolved offload width of the run
};

/// Fixed work of one repetition of a workload (a closed loop runs these
/// back to back).
struct RepResult {
  double wall_s = 0.0;   // whole repetition, set-up included
  double setup_s = 0.0;  // building workloads and Sessions
  std::int64_t samples = 0;
  std::vector<RunOutcome> runs;
  /// Speed probe times taken between the repetition's runs; the time spent
  /// probing is not part of wall_s.
  std::vector<double> probes_s;
  double probing_s = 0.0;

  // Campaign workload only.
  double campaign_cold_s = 0.0, campaign_warm_s = 0.0;
  int campaign_executed = 0, campaign_cache_hits = 0;
  int campaign_runner_threads = 0;
  std::vector<dt::campaign::RunRecord> cold_records;
};

/// Per-layer metric values by name (see kLayerMetrics in main.cpp).
using LayerValues = std::map<std::string, double>;

/// FNV-1a-64 as 16 lowercase hex chars.
[[nodiscard]] std::string fnv1a_hex(const void* data, std::size_t n);

/// "vd=<17 sig. digits> samples=.. wire_bytes=.. wire_messages=.." plus,
/// for functional runs, "acc=<17 digits> params=<FNV-1a of every worker's
/// parameters>".
[[nodiscard]] std::string run_fingerprint(const dt::metrics::RunResult& r,
                                          const std::string& param_hash);

}  // namespace pb
