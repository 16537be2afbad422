// Golden A/B tests: the fixtures in tests/golden/ pin byte-for-byte
// reproduction — metrics JSONL, final-parameter hash, and virtual
// duration — across engine rewrites. The BSP pair was captured from the
// seed build (linear-scan scheduler, by-value packet payloads); arsgd_seed
// pins the fault-free AR-SGD ring so the elastic-membership machinery can
// never perturb a healthy run, and dpsgd_seed / dpsgd_faults do the same
// for D-PSGD, fault-free and under a stall-mode crash. arsgd_drop and
// dpsgd_drop pin the elastic ring (sync_policy = drop): view changes,
// aborted rounds, epoch flushes and the rejoin. The <algo>_faults and
// <algo>_reliable fixtures pin every PS protocol under worker crashes and
// over the reliable transport with a PS failover; ssp_reliable_profiled
// adds the critical-path report of such a run.
//
// Regenerating (deliberate behaviour changes only):
//   DT_GOLDEN_CAPTURE=1 ./test_golden   # rewrites tests/golden/ in place
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "profile/critical_path.hpp"

namespace dt::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// FNV-1a over the raw float bits of every worker's parameters — the same
/// hash the fixture capture used.
std::uint64_t param_hash(Workload& wl, int workers) {
  std::uint64_t h = 1469598103934665603ull;
  for (int w = 0; w < workers; ++w) {
    for (const auto& t : wl.params(w)) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        std::uint32_t bits;
        const float v = t[static_cast<std::size_t>(i)];
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
          h ^= (bits >> (8 * b)) & 0xFFu;
          h *= 1099511628211ull;
        }
      }
    }
  }
  return h;
}

/// Fault fixtures layered on the common 4-worker configuration.
enum class Fixture {
  clean,     // no faults
  faults,    // rank 1 straggles 2x, rank 2 crashes at 0.5 s for 0.4 s
  drop,      // `faults` under sync_policy = drop (ring repair), with the
             // failure detector scaled to the no-fault duration
  reliable,  // 5% loss, 5% dup, 10% reorder, replicate_ps, and a shard-0
             // primary crash at 0.4x the no-fault replicated duration
};

Workload golden_workload() {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 256;
  spec.test_samples = 64;
  spec.input_dim = 12;
  spec.hidden_dim = 16;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = 4;
  spec.seed = 23;
  return make_functional_workload(spec);
}

TrainConfig golden_config(Algo algo) {
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  return cfg;
}

/// Fixture file stem: lower-case algorithm name plus `suffix`.
std::string stem_of(Algo algo, const std::string& suffix) {
  std::string stem = algo_name(algo);
  for (char& ch : stem) ch = static_cast<char>(std::tolower(ch));
  return stem + suffix;
}

/// Reruns the fixture configuration (4 workers, functional workload,
/// seeds 23/7 — exactly what captured tests/golden/) and compares against
/// the named fixture pair; with DT_GOLDEN_CAPTURE set, rewrites it. With
/// `profiled` the run also profiles, and its critical-path report is
/// pinned as a third file.
void expect_matches_golden(Algo algo, Fixture fixture,
                           const std::string& stem, bool profiled = false) {
  const std::string jsonl = "/tmp/dtrainlib_golden_" + stem + ".jsonl";
  TrainConfig cfg = golden_config(algo);
  if (fixture == Fixture::drop) {
    // Detector constants as a fraction of the no-fault duration d, the
    // scaling the ring-repair suite (test_membership) uses.
    Workload probe_wl = golden_workload();
    const double d = run_training(cfg, probe_wl).virtual_duration;
    cfg.membership.period_s = 0.01 * d;
    cfg.membership.timeout_s = 0.05 * d;
    cfg.membership.confirm_s = 0.02 * d;
    cfg.faults.sync_policy = faults::SyncPolicy::drop;
  }
  if (fixture == Fixture::faults || fixture == Fixture::drop) {
    cfg.faults.slow_ranks.push_back({1, 2.0});
    faults::Crash c;
    c.rank = 2;
    c.at = 0.5;
    c.downtime = 0.4;
    cfg.faults.crashes.push_back(c);
  } else if (fixture == Fixture::reliable) {
    cfg.reliability.replicate_ps = true;
    {
      Workload probe_wl = golden_workload();
      const double d = run_training(cfg, probe_wl).virtual_duration;
      cfg.faults.ps_crashes = {{0, 0.4 * d}};
    }
    cfg.faults.msg.loss_prob = 0.05;
    cfg.faults.msg.dup_prob = 0.05;
    cfg.faults.msg.reorder_prob = 0.1;
    cfg.faults.msg.reorder_window = 0.002;
  }
  cfg.metrics_jsonl = jsonl;
  cfg.profile = profiled;
  Workload wl = golden_workload();
  auto result = run_training(cfg, wl);
  std::string report;
  if (profiled) {
    EXPECT_TRUE(result.profile);
    if (result.profile) report = profile::format_report(*result.profile);
  }

  const std::string dir = DT_GOLDEN_DIR;
  std::ostringstream meta;
  meta << "param_hash=" << param_hash(wl, 4) << "\n";
  std::ostringstream vd;
  vd.precision(17);
  vd << result.virtual_duration;
  meta << "virtual_duration=" << vd.str() << "\n";

  if (std::getenv("DT_GOLDEN_CAPTURE") != nullptr) {
    std::ofstream(dir + "/" + stem + ".jsonl", std::ios::binary)
        << slurp(jsonl);
    std::ofstream(dir + "/" + stem + ".meta", std::ios::binary) << meta.str();
    if (profiled) {
      std::ofstream(dir + "/" + stem + ".report", std::ios::binary) << report;
    }
    std::remove(jsonl.c_str());
    return;
  }
  EXPECT_EQ(slurp(jsonl), slurp(dir + "/" + stem + ".jsonl"))
      << "metrics JSONL deviates from the fixture";
  EXPECT_EQ(meta.str(), slurp(dir + "/" + stem + ".meta"))
      << "final params or virtual duration deviate from the fixture";
  if (profiled) {
    EXPECT_EQ(report, slurp(dir + "/" + stem + ".report"))
        << "critical-path report deviates from the fixture";
  }
  std::remove(jsonl.c_str());
}

TEST(Golden, BspRunIsByteIdenticalToSeedEngine) {
  expect_matches_golden(Algo::bsp, Fixture::clean, "bsp_seed");
}

TEST(Golden, BspFaultInjectedRunIsByteIdenticalToSeedEngine) {
  // Straggler + crash/recovery: exercises wake(), recv_until deadlines,
  // and drain on the heap path with the exact seed-engine tie-breaks.
  expect_matches_golden(Algo::bsp, Fixture::faults, "bsp_faults_seed");
}

TEST(Golden, ArsgdRunIsByteIdenticalToFixture) {
  // Fault-free ring allreduce: pins the legacy (non-elastic) AR-SGD path
  // so membership/ring-repair changes can never shift a healthy run.
  expect_matches_golden(Algo::arsgd, Fixture::clean, "arsgd_seed");
}

TEST(Golden, DpsgdRunIsByteIdenticalToFixture) {
  expect_matches_golden(Algo::dpsgd, Fixture::clean, "dpsgd_seed");
}

TEST(Golden, DpsgdStallCrashRunIsByteIdenticalToFixture) {
  // Stall-mode crash: neighbors block on the down rank, which recovers
  // from a peer replica and re-sends.
  expect_matches_golden(Algo::dpsgd, Fixture::faults, "dpsgd_faults");
}

TEST(Golden, ArsgdDropRunIsByteIdenticalToFixture) {
  // Elastic ring repair. Labelled `membership`, so the sanitized
  // membership smoke (scripts/check.sh membership) runs it too.
  expect_matches_golden(Algo::arsgd, Fixture::drop, "arsgd_drop");
}

TEST(Golden, DpsgdDropRunIsByteIdenticalToFixture) {
  expect_matches_golden(Algo::dpsgd, Fixture::drop, "dpsgd_drop");
}

TEST(Golden, CentralizedFaultRunsAreByteIdenticalToFixtures) {
  // The PS protocols under the straggler + worker-crash plan: crash,
  // incarnation filter, recovery pull and (DSSP) rejoin note.
  for (Algo algo : {Algo::asp, Algo::ssp, Algo::dssp, Algo::easgd}) {
    SCOPED_TRACE(algo_name(algo));
    expect_matches_golden(algo, Fixture::faults,
                          stem_of(algo, "_faults"));
  }
}

TEST(Golden, CentralizedReliableRunsAreByteIdenticalToFixtures) {
  // The PS protocols over the reliable transport: retransmission, dedup
  // by round id, mirroring to the backup and a shard-0 failover.
  for (Algo algo :
       {Algo::bsp, Algo::asp, Algo::ssp, Algo::dssp, Algo::easgd}) {
    SCOPED_TRACE(algo_name(algo));
    expect_matches_golden(algo, Fixture::reliable,
                          stem_of(algo, "_reliable"));
  }
}

TEST(Golden, ReliableProfiledSspRunIsByteIdenticalToFixture) {
  // The critical-path walk over a lossy run's retransmits, acks,
  // duplicates and the shard-0 failover edges. Labelled `reliable`, so the
  // sanitized fault smoke (scripts/check.sh faults) runs it too.
  expect_matches_golden(Algo::ssp, Fixture::reliable, "ssp_reliable_profiled",
                        /*profiled=*/true);
}

/// One cost-only AR-SGD fixture: the metrics JSONL and the virtual duration
/// (17 digits) always; with `observed` also the sampled time-series CSV
/// (which carries the `net.in_flight` gauge) and the critical-path report.
/// With DT_GOLDEN_CAPTURE set, rewrites the fixture files instead.
void expect_cost_ring_matches_golden(TrainConfig cfg, Workload wl,
                                     const std::string& stem, bool observed) {
  const std::string tmp = "/tmp/dtrainlib_golden_" + stem;
  cfg.metrics_jsonl = tmp + ".jsonl";
  if (observed) cfg.timeseries_csv = tmp + ".csv";
  const auto result = run_training(cfg, wl);

  std::ostringstream vd;
  vd.precision(17);
  vd << "virtual_duration=" << result.virtual_duration << "\n";
  std::vector<std::pair<std::string, std::string>> files = {
      {".jsonl", slurp(tmp + ".jsonl")}, {".meta", vd.str()}};
  if (observed) {
    files.emplace_back(".csv", slurp(tmp + ".csv"));
    EXPECT_TRUE(result.profile);
    files.emplace_back(".report",
                       result.profile ? profile::format_report(*result.profile)
                                      : std::string());
  }
  std::remove(cfg.metrics_jsonl.c_str());
  if (observed) std::remove(cfg.timeseries_csv.c_str());

  const std::string base = std::string(DT_GOLDEN_DIR) + "/" + stem;
  for (const auto& [ext, text] : files) {
    if (std::getenv("DT_GOLDEN_CAPTURE") != nullptr) {
      std::ofstream(base + ext, std::ios::binary) << text;
    } else {
      EXPECT_EQ(text, slurp(base + ext)) << stem << ext
                                         << " deviates from the fixture";
    }
  }
}

/// Cost-only AR-SGD configuration shared by the ring fixtures.
TrainConfig cost_ring_config(int workers, int per_machine, bool wait_free) {
  TrainConfig cfg;
  cfg.algo = Algo::arsgd;
  cfg.num_workers = workers;
  cfg.cluster.workers_per_machine = per_machine;
  cfg.opt.wait_free_bp = wait_free;
  cfg.iterations = 4;
  cfg.seed = 11;
  return cfg;
}

TEST(Golden, CostRingPartialMachineWaitFreeIsByteIdenticalToFixture) {
  // 13 workers at 4 per machine (the last machine holds one), four
  // overlapping bucket rings per iteration, default compute jitter.
  expect_cost_ring_matches_golden(
      cost_ring_config(13, 4, true),
      make_cost_workload(cost::resnet50_profile(), 32), "arsgd_cost_partial",
      false);
}

TEST(Golden, CostRingTiedClocksIsByteIdenticalToFixture) {
  // No jitter: every rank is symmetric, so virtual times tie exactly and
  // only the engine's sequence numbers order the ring's events.
  expect_cost_ring_matches_golden(
      cost_ring_config(8, 2, false),
      make_cost_workload(cost::resnet50_profile(), 32, cost::titan_v(), 0.0),
      "arsgd_cost_tied", false);
}

TEST(Golden, CostRingFaultedProfiledRunIsByteIdenticalToFixture) {
  // A 2x straggler, a degraded link window on machine 1, a stall-mode
  // crash of rank 5, the profiler and the sampled time series.
  TrainConfig cfg = cost_ring_config(16, 4, true);
  cfg.iterations = 6;
  cfg.faults.slow_ranks.push_back({3, 2.0});
  faults::LinkWindow lw;
  lw.machine = 1;
  lw.start = 0.3;
  lw.end = 0.9;
  lw.bw_mult = 0.25;
  lw.lat_mult = 4.0;
  cfg.faults.link_windows.push_back(lw);
  faults::Crash c;
  c.rank = 5;
  c.at = 0.6;
  c.downtime = 0.35;
  cfg.faults.crashes.push_back(c);
  cfg.profile = true;
  cfg.sample_period = 0.05;
  expect_cost_ring_matches_golden(
      cfg, make_cost_workload(cost::resnet50_profile(), 32),
      "arsgd_cost_faults", true);
}

TEST(Golden, FsdpStages1And2MatchBspBitwise) {
  // FSDP stages 1/2 claim to be a resharded BSP: same gradient sum, same
  // 1/N scale, same momentum kernel — only *where* the update runs moves.
  // Pin that claim with an in-process A/B: a BSP run whose PS arrival
  // order is forced to rank order (large distinct stragglers dominate the
  // 2% compute jitter; no local aggregation, single PS shard) must produce
  // the exact parameter bits of FSDP, whose owners always sum in rank
  // order. Elementwise momentum is partition-invariant, so the shard
  // boundaries cannot perturb the result.
  auto run_hash = [](Algo algo, int stage) {
    Workload wl = golden_workload();
    TrainConfig cfg = golden_config(algo);
    cfg.opt.local_aggregation = false;
    cfg.opt.zero_stage = stage;
    cfg.faults.slow_ranks.push_back({1, 1.5});
    cfg.faults.slow_ranks.push_back({2, 2.0});
    cfg.faults.slow_ranks.push_back({3, 2.5});
    run_training(cfg, wl);
    return param_hash(wl, 4);
  };

  const std::uint64_t bsp = run_hash(Algo::bsp, 1);
  EXPECT_EQ(run_hash(Algo::fsdp, 1), bsp) << "stage 1 deviates from BSP";
  EXPECT_EQ(run_hash(Algo::fsdp, 2), bsp) << "stage 2 deviates from BSP";
}

}  // namespace
}  // namespace dt::core
