// Critical-path profiler, part 2: the analyzer.
//
// analyze() assembles a SpanLog's phase spans and message edges into the
// round-level dependency DAG and walks the critical path BACKWARD from the
// end of the run: starting at the last-finishing worker at t = makespan, it
// repeatedly asks "what was this endpoint doing just before t?"
//   - inside a busy span (compute / local_agg): charge that class, jump to
//     the span's start;
//   - otherwise the endpoint was waiting: find the enabling inbound message
//     (latest arrival <= t), charge the dwell to `wait` (worker) or `ps`
//     (PS queueing + aggregation service), then charge the wire transit
//     sent→arrival to `comm` and continue at the *sender* endpoint.
// Each step covers a disjoint interval, so the per-class attributions tile
// [0, makespan] exactly: shares sum to 100% of the end-to-end virtual time
// by construction, and the critical-path length equals the run's virtual
// elapsed time.
//
// What-if estimates are analytic, obtained by zeroing one edge class on the
// computed path. They are upper bounds: removing a resource exposes the
// next-longest path, so the real speedup is at most the quoted delta (see
// docs/observability.md, "Reading the what-ifs").
//
// Everything here is a pure function of the span log — no wall clock, no
// host state — so profiles are byte-identical across hosts and
// compute_threads settings.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "profile/spans.hpp"

namespace dt::profile {

/// Where a slice of end-to-end time went.
enum class CostClass : int {
  compute = 0,    // critical worker busy in forward/backward pass
  local_agg = 1,  // critical worker busy in intra-machine aggregation
  comm = 2,       // wire transit (serialization + latency) of enabling msgs
  ps = 3,         // dwell at a PS shard: queueing + aggregation service
  wait = 4,       // worker blocked: barrier / convoy / straggler wait
};
inline constexpr int kNumCostClasses = 5;

[[nodiscard]] const char* cost_class_name(CostClass c) noexcept;

struct ClassTotals {
  std::array<double, kNumCostClasses> seconds{};

  void add(CostClass c, double s) noexcept {
    seconds[static_cast<int>(c)] += s;
  }
  [[nodiscard]] double get(CostClass c) const noexcept {
    return seconds[static_cast<int>(c)];
  }
  [[nodiscard]] double total() const noexcept {
    double t = 0.0;
    for (double v : seconds) t += v;
    return t;
  }
};

struct RoundCost {
  std::int64_t round = 0;
  ClassTotals cls;
};

/// The analyzer's output: the run's critical-path decomposition plus the
/// per-worker wall-time decomposition behind the Figure-3 wait column.
struct RunProfile {
  double makespan = 0.0;  // end-to-end virtual time analyzed
  int num_workers = 0;
  std::int64_t iterations_per_epoch = 0;  // 0: whole run = one "epoch"
  std::size_t num_spans = 0;
  std::size_t num_edges = 0;

  /// Critical-path decomposition; critical.total() == makespan.
  ClassTotals critical;
  /// Critical compute+local_agg seconds attributed to each rank.
  std::vector<double> cp_busy_by_rank;
  /// Per-round slice of the critical path (sorted by round; rounds the walk
  /// could not attribute land on round 0).
  std::vector<RoundCost> rounds;

  /// Per-worker WALL decomposition over [0, that worker's last span end]:
  /// own busy phases verbatim; every non-busy gap attributed via the same
  /// backward walk (another rank's busy time shows up as `wait` here — the
  /// straggler effect). Source of bench_fig3_breakdown's wait column.
  std::vector<ClassTotals> workers;

  /// Mean busy compute seconds per iteration per rank (straggler what-if).
  std::vector<double> mean_iter_compute;

  // Analytic what-ifs: estimated seconds saved off the makespan.
  double whatif_fast_network = 0.0;  // infinitely fast wire: -comm
  double whatif_no_ps = 0.0;         // zero PS queue/service: -ps
  double whatif_no_wait = 0.0;       // no blocking waits: -wait
  double whatif_no_straggler = 0.0;  // critical rank computes at best rate
  int straggler_rank = -1;           // rank with most critical busy time

  [[nodiscard]] double share(CostClass c) const noexcept {
    return makespan > 0.0 ? critical.get(c) / makespan : 0.0;
  }
};

/// One slice of the backward walk: `seconds` of class `cls` charged to
/// worker `rank` (-1: none) in round context `round`.
struct PathSlice {
  CostClass cls;
  int rank;
  std::int64_t round;
  double seconds;
};

/// The global critical path that analyze() aggregates: its slices from the
/// end of the run backward, starting at the last-finishing worker. Their
/// seconds sum to `makespan`.
[[nodiscard]] std::vector<PathSlice> critical_path(const SpanLog& log,
                                                   double makespan,
                                                   int num_workers);

/// Runs the backward critical-path walk over `log`. `makespan` is the run's
/// end-of-run virtual clock; `iterations_per_epoch` (0 = unknown) is used
/// only to report per-epoch figures.
[[nodiscard]] RunProfile analyze(const SpanLog& log, double makespan,
                                 int num_workers,
                                 std::int64_t iterations_per_epoch);

/// Human-readable bottleneck report (class table, top critical ranks,
/// what-if lines). Pure function of the profile — byte-stable.
[[nodiscard]] std::string format_report(const RunProfile& p);

}  // namespace dt::profile
