#include "faults/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dt::faults {

bool MsgFaults::affects(int src_machine, int dst_machine) const noexcept {
  if (machines.empty()) return true;
  for (int m : machines) {
    if (m == src_machine || m == dst_machine) return true;
  }
  return false;
}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t seed,
                     int num_workers) {
  common::check(num_workers >= 1, "FaultPlan: need at least one worker");
  cfg_ = config;
  seed_ = seed;
  const auto n = static_cast<std::size_t>(num_workers);
  persistent_.assign(n, 1.0);
  windows_.assign(n, {});
  crashes_.assign(n, {});

  for (const auto& [rank, factor] : cfg_.slow_ranks) {
    common::check(rank >= 0 && rank < num_workers,
                  "FaultPlan: slow rank out of range");
    common::check(factor > 0.0, "FaultPlan: slow factor must be positive");
    persistent_[static_cast<std::size_t>(rank)] = factor;
  }

  if (cfg_.transient_rank >= 0) {
    common::check(cfg_.transient_rank < num_workers,
                  "FaultPlan: transient rank out of range");
    common::check(cfg_.transient_rate > 0.0,
                  "FaultPlan: transient_rate must be positive");
    common::check(cfg_.transient_factor > 0.0,
                  "FaultPlan: transient_factor must be positive");
    // Dedicated stream: window generation never perturbs the worker or
    // data RNG streams, so adding transients leaves everything else's
    // draws untouched.
    common::Rng rng = common::Rng(seed).fork(
        0xFA170000ULL + static_cast<std::uint64_t>(cfg_.transient_rank));
    auto& wins = windows_[static_cast<std::size_t>(cfg_.transient_rank)];
    double t = 0.0;
    for (;;) {
      // Exponential inter-arrival gap with mean 1/rate.
      double u = rng.uniform();
      while (u <= 0.0) u = rng.uniform();
      t += -std::log(u) / cfg_.transient_rate;
      if (t > cfg_.transient_horizon) break;
      const double duration = rng.lognormal(cfg_.transient_duration_mu,
                                            cfg_.transient_duration_sigma);
      wins.push_back(SlowWindow{t, t + duration, cfg_.transient_factor});
      t += duration;  // windows never overlap
    }
  }

  for (const auto& w : cfg_.link_windows) {
    common::check(w.machine >= 0, "FaultPlan: link window machine < 0");
    common::check(w.end > w.start, "FaultPlan: empty link window");
    common::check(w.bw_mult > 0.0 && w.bw_mult <= 1.0,
                  "FaultPlan: link bw_mult must be in (0, 1]");
    common::check(w.lat_mult >= 1.0, "FaultPlan: link lat_mult must be >= 1");
  }

  for (const auto& c : cfg_.crashes) {
    common::check(c.rank >= 0 && c.rank < num_workers,
                  "FaultPlan: crash rank out of range");
    common::check(c.at >= 0.0 && c.downtime > 0.0,
                  "FaultPlan: crash needs at >= 0 and downtime > 0");
    crashes_[static_cast<std::size_t>(c.rank)].push_back(c);
  }
  for (auto& list : crashes_) {
    std::sort(list.begin(), list.end(),
              [](const Crash& a, const Crash& b) { return a.at < b.at; });
    for (std::size_t i = 1; i < list.size(); ++i) {
      common::check(
          list[i].at >= list[i - 1].at + list[i - 1].downtime,
          "FaultPlan: overlapping crash windows for a rank (each crash's "
          "[at, at + downtime) must end before the next begins)");
    }
  }

  const MsgFaults& m = cfg_.msg;
  common::check(m.loss_prob >= 0.0 && m.loss_prob < 1.0,
                "FaultPlan: [failures] loss_prob must be in [0, 1)");
  common::check(m.dup_prob >= 0.0 && m.dup_prob < 1.0,
                "FaultPlan: [failures] dup_prob must be in [0, 1)");
  common::check(m.reorder_prob >= 0.0 && m.reorder_prob < 1.0,
                "FaultPlan: [failures] reorder_prob must be in [0, 1)");
  common::check(m.reorder_window >= 0.0,
                "FaultPlan: [failures] reorder_window must be >= 0");
  common::check(m.reorder_prob == 0.0 || m.reorder_window > 0.0,
                "FaultPlan: [failures] reorder_prob > 0 needs reorder_window "
                "> 0 (it defaults to 0): set the largest extra delay of a "
                "reordered message in virtual seconds, e.g. reorder_window = "
                "0.002");
  for (int machine : m.machines) {
    common::check(machine >= 0, "FaultPlan: lossy machine index < 0");
  }

  for (const auto& pc : cfg_.ps_crashes) {
    common::check(pc.shard >= 0, "FaultPlan: ps crash shard < 0");
    common::check(pc.at >= 0.0, "FaultPlan: ps crash needs at >= 0");
    for (const auto& other : cfg_.ps_crashes) {
      common::check(&other == &pc || other.shard != pc.shard,
                    "FaultPlan: at most one crash per PS shard (fail-stop)");
    }
  }
}

double FaultPlan::persistent_factor(int rank) const noexcept {
  const auto r = static_cast<std::size_t>(rank);
  return r < persistent_.size() ? persistent_[r] : 1.0;
}

double FaultPlan::factor_at(int rank, double t) const noexcept {
  double f = persistent_factor(rank);
  const auto r = static_cast<std::size_t>(rank);
  if (r < windows_.size()) {
    for (const SlowWindow& w : windows_[r]) {
      if (t < w.start) break;
      if (t < w.end) {
        f *= w.factor;
        break;
      }
    }
  }
  return f;
}

double FaultPlan::stretch(int rank, double start, double nominal) const {
  const double base = persistent_factor(rank);
  const auto r = static_cast<std::size_t>(rank);
  const std::vector<SlowWindow>* wins =
      r < windows_.size() && !windows_[r].empty() ? &windows_[r] : nullptr;
  if (wins == nullptr || nominal <= 0.0) return nominal * base;

  // Piecewise integration: within each constant-factor segment, `span`
  // virtual seconds complete span/factor nominal seconds of work.
  double t = start;
  double remaining = nominal;
  for (;;) {
    const double f = factor_at(rank, t);
    // Next factor-change boundary strictly after t.
    double boundary = -1.0;
    for (const SlowWindow& w : *wins) {
      if (w.start > t) {
        boundary = w.start;
        break;
      }
      if (w.end > t) {
        boundary = w.end;
        break;
      }
    }
    if (boundary < 0.0) return (t - start) + remaining * f;
    const double span = boundary - t;
    const double capacity = span / f;
    if (capacity >= remaining) return (t - start) + remaining * f;
    remaining -= capacity;
    t = boundary;
  }
}

bool FaultPlan::link_multipliers(double t, int src_machine, int dst_machine,
                                 double* bw_mult,
                                 double* lat_mult) const noexcept {
  double bw = 1.0;
  double lat = 1.0;
  bool active = false;
  for (const LinkWindow& w : cfg_.link_windows) {
    if (t < w.start || t >= w.end) continue;
    if (w.machine != src_machine && w.machine != dst_machine) continue;
    bw *= w.bw_mult;
    lat *= w.lat_mult;
    active = true;
  }
  if (bw_mult != nullptr) *bw_mult = bw;
  if (lat_mult != nullptr) *lat_mult = lat;
  return active;
}

const std::vector<Crash>& FaultPlan::crashes_of(int rank) const {
  common::check(rank >= 0 &&
                    static_cast<std::size_t>(rank) < crashes_.size(),
                "FaultPlan: rank out of range");
  return crashes_[static_cast<std::size_t>(rank)];
}

const PsCrash* FaultPlan::ps_crash_of(int shard) const noexcept {
  for (const PsCrash& pc : cfg_.ps_crashes) {
    if (pc.shard == shard) return &pc;
  }
  return nullptr;
}

const std::vector<SlowWindow>& FaultPlan::windows(int rank) const {
  common::check(rank >= 0 &&
                    static_cast<std::size_t>(rank) < windows_.size(),
                "FaultPlan: rank out of range");
  return windows_[static_cast<std::size_t>(rank)];
}

}  // namespace dt::faults
