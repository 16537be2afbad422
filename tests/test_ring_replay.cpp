// Tests for net::RingReplay, the packet-free replay of cost-only ring
// AllReduce: randomized bitwise equivalence with the message ring, and the
// engagement check that a cost-only AR-SGD run actually takes the replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "faults/faults.hpp"
#include "metrics/registry.hpp"
#include "metrics/span_sink.hpp"
#include "net/collectives.hpp"
#include "net/ring_replay.hpp"

namespace dt::net {
namespace {

/// Exact text of a double (bit-for-bit comparisons read well in diffs).
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Folds every message edge, in delivery order, into an FNV-1a hash.
class EdgeLog : public metrics::SpanSink {
 public:
  void on_phase(int, std::int64_t, int, double, double) override {}
  void on_window(int, std::int64_t, double, double) override {}
  void on_edge(int src, int dst, std::uint64_t bytes, double sent,
               double arrival, bool inter) override {
    std::uint64_t sent_bits = 0;
    std::uint64_t arrival_bits = 0;
    std::memcpy(&sent_bits, &sent, sizeof sent);
    std::memcpy(&arrival_bits, &arrival, sizeof arrival);
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(dst),
          bytes, sent_bits, arrival_bits, std::uint64_t{inter}}) {
      hash = (hash ^ v) * 1099511628211ull;
    }
    ++count;
  }
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t count = 0;
};

/// One randomized ring scenario: cluster shape and speeds, per-rank entry
/// skews (with exact ties), several tag pairs run back to back with compute
/// gaps (so collectives overlap across ranks), and an outside flow that
/// shares the NICs.
struct Scenario {
  int n = 0;
  int per_machine = 1;
  ClusterSpec spec;
  int pairs = 1;
  int rounds = 2;
  std::vector<std::uint64_t> bytes;  // per tag pair
  std::vector<double> skew;          // per rank
  std::vector<double> gap;           // per (rank, round, pair)
  // Per rank: spend the gaps waiting on the ring endpoint for a tag that
  // never comes (Network::recv_until) instead of computing, so chunks that
  // land meanwhile wake the rank spuriously through the engine.
  std::vector<bool> polls;
  int outside_msgs = 0;
  std::vector<double> outside_gap;
  std::uint64_t outside_bytes = 0;
  faults::FaultConfig faults;  // link-degradation windows (may reorder)
  double sample_period = 0.0;  // in-flight gauge sampler; 0 = off
};

Scenario make_scenario(std::uint64_t seed) {
  common::Rng rng(seed);
  Scenario sc;
  // Half the scenarios are dyadic: bandwidths, sizes and times are powers
  // of two, so sums are exact and many events tie in virtual time — then
  // only the engine's sequence numbers (and mailbox FIFO) decide the order.
  const bool dyadic = rng.bernoulli(0.5);
  const auto pow2 = [](int e) { return std::ldexp(1.0, e); };
  const auto pick = [&](double a, double b) { return rng.bernoulli(0.5) ? a : b; };
  sc.n = static_cast<int>(rng.uniform_int(2, 40));
  sc.per_machine = static_cast<int>(rng.uniform_int(1, 5));
  sc.spec.num_machines = (sc.n + sc.per_machine - 1) / sc.per_machine + 1;
  if (dyadic) {
    const int k = static_cast<int>(rng.uniform_int(27, 33));
    sc.spec.nic_bandwidth = pow2(k);
    sc.spec.local_bus_bandwidth = pow2(k + 3);
    sc.spec.latency = pick(0.0, pow2(-13));
    sc.spec.local_latency = pick(0.0, pow2(-17));
    sc.spec.send_overhead = pick(0.0, pow2(-18));
  } else {
    sc.spec.nic_bandwidth = rng.uniform(1e8, 1e10);
    sc.spec.local_bus_bandwidth = rng.uniform(1e9, 2e10);
    sc.spec.latency = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1e-4);
    sc.spec.local_latency = rng.uniform(0.0, 1e-5);
    sc.spec.send_overhead = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 1e-5);
  }
  sc.pairs = static_cast<int>(rng.uniform_int(1, 4));
  const auto n = static_cast<std::uint64_t>(sc.n);
  for (int p = 0; p < sc.pairs; ++p) {
    // Includes totals below n (chunks billed at the 1-byte floor).
    if (rng.bernoulli(0.2)) {
      sc.bytes.push_back(rng.uniform_u64(n));
    } else if (dyadic) {
      sc.bytes.push_back(n << rng.uniform_int(10, 20));
    } else {
      sc.bytes.push_back(rng.uniform_u64(40'000'000) + 1);
    }
  }
  // Skews drawn from a few levels, so many ranks enter at the same instant.
  const double unit = dyadic ? pow2(-12) : rng.uniform(0.0, 1e-3);
  for (int r = 0; r < sc.n; ++r) {
    sc.skew.push_back(unit * static_cast<double>(rng.uniform_int(0, 3)));
    sc.polls.push_back(rng.bernoulli(0.3));
  }
  for (int i = 0; i < sc.n * sc.rounds * sc.pairs; ++i) {
    const double g = dyadic ? unit * static_cast<double>(rng.uniform_int(1, 8))
                            : rng.uniform(0.0, 2e-3);
    sc.gap.push_back(rng.bernoulli(0.3) ? 0.0 : g);
  }
  sc.outside_msgs = static_cast<int>(rng.uniform_int(0, 20));
  for (int i = 0; i < sc.outside_msgs; ++i) {
    sc.outside_gap.push_back(dyadic ? unit * static_cast<double>(rng.uniform_int(0, 4))
                                    : rng.uniform(0.0, 1e-3));
  }
  sc.outside_bytes = dyadic ? std::uint64_t{1} << rng.uniform_int(10, 22)
                            : rng.uniform_u64(5'000'000) + 1;
  // A degraded window. Raised latency lets a later chunk overtake an
  // earlier one, exercising the mailbox's sorted insert.
  if (rng.bernoulli(0.4)) {
    faults::LinkWindow lw;
    lw.machine = static_cast<int>(rng.uniform_int(0, sc.spec.num_machines - 1));
    lw.start = dyadic ? unit * static_cast<double>(rng.uniform_int(0, 8))
                      : rng.uniform(0.0, 2e-3);
    lw.end = lw.start + (dyadic ? unit * static_cast<double>(rng.uniform_int(1, 8))
                                : rng.uniform(0.0, 3e-3));
    lw.bw_mult = dyadic ? pick(0.5, 0.25) : rng.uniform(0.1, 1.0);
    lw.lat_mult = rng.bernoulli(0.5) ? 1.0 : (dyadic ? 2.0 : rng.uniform(1.0, 3.0));
    sc.faults.link_windows.push_back(lw);
  }
  if (rng.bernoulli(0.5)) {
    sc.sample_period = dyadic ? pow2(-13) : rng.uniform(1e-5, 5e-4);
  }
  return sc;
}

struct Outcome {
  std::string exits;  // collective exits (rank, round, pair, time, order),
                      // outside deliveries and in-flight samples
  std::string stats;
  std::string metrics;
  std::string edges;
  std::string error;
};

Outcome run_scenario(const Scenario& sc, bool replay) {
  runtime::SimEngine engine;
  Network net(engine, sc.spec);
  const faults::FaultPlan plan(sc.faults, 1, sc.n);
  metrics::MetricRegistry registry;
  EdgeLog edges;
  net.set_faults(&plan);
  net.set_metrics(&registry);
  net.set_spans(&edges);

  std::vector<int> eps;
  for (int r = 0; r < sc.n; ++r) eps.push_back(net.add_endpoint(r / sc.per_machine));
  // The outside flow: last machine -> machine 0, through both NICs.
  const int out_src = net.add_endpoint(sc.spec.num_machines - 1);
  const int out_dst = net.add_endpoint(0);
  std::unique_ptr<RingReplay> rr;
  if (replay) rr = std::make_unique<RingReplay>(net, eps);

  std::ostringstream exits;
  int order = 0;
  for (int r = 0; r < sc.n; ++r) {
    runtime::Process& p = engine.spawn(
        "rank" + std::to_string(r), [&, r](runtime::Process& self) {
          const Communicator comm{&net, eps, r, rr.get()};
          self.advance(sc.skew[static_cast<std::size_t>(r)]);
          std::size_t g = static_cast<std::size_t>(r * sc.rounds * sc.pairs);
          for (int round = 0; round < sc.rounds; ++round) {
            for (int pair = 0; pair < sc.pairs; ++pair) {
              const double gap = sc.gap[g++];
              if (sc.polls[static_cast<std::size_t>(r)]) {
                (void)net.recv_until(self, comm.my_endpoint(), 99,
                                     self.now() + gap);
              } else {
                self.advance(gap);
              }
              ring_allreduce(self, comm, {},
                             sc.bytes[static_cast<std::size_t>(pair)],
                             100 + 2 * pair);
              exits << r << " " << round << " " << pair << " "
                    << hex(self.now()) << " #" << order++ << "\n";
            }
          }
        });
    net.bind(eps[static_cast<std::size_t>(r)], p);
  }
  if (sc.outside_msgs > 0) {
    runtime::Process& tx = engine.spawn("out-tx", [&](runtime::Process& self) {
      for (int i = 0; i < sc.outside_msgs; ++i) {
        self.advance(sc.outside_gap[static_cast<std::size_t>(i)]);
        Packet pkt;
        pkt.tag = 7;
        pkt.wire_bytes = sc.outside_bytes;
        net.send(self, out_src, out_dst, std::move(pkt));
      }
    });
    runtime::Process& rx = engine.spawn("out-rx", [&](runtime::Process& self) {
      for (int i = 0; i < sc.outside_msgs; ++i) {
        (void)net.recv(self, out_dst, 7);
        exits << "out " << i << " " << hex(self.now()) << " #" << order++
              << "\n";
      }
    });
    net.bind(out_src, tx);
    net.bind(out_dst, rx);
  }
  std::ostringstream samples;
  if (sc.sample_period > 0.0) {
    const metrics::Gauge& in_flight = registry.gauge("net.in_flight");
    engine.spawn(
        "sampler",
        [&](runtime::Process& self) {
          for (;;) {
            self.advance(sc.sample_period);
            samples << in_flight.value() << " ";
          }
        },
        /*daemon=*/true);
  }
  Outcome o;
  try {
    engine.run();
  } catch (const std::exception& e) {
    // A link window's latency drop can let a chunk overtake an earlier one
    // of the same tag; both rings then fail the same chunk-order check.
    // The message without its "file:line: " prefix.
    const std::string what = e.what();
    o.error = what.substr(what.find(": ") + 2);
  }
  o.exits = exits.str() + samples.str();
  const TrafficStats& st = net.stats();
  o.stats = std::to_string(st.messages) + " " + std::to_string(st.bytes) +
            " " + std::to_string(st.inter_machine_messages) + " " +
            std::to_string(st.inter_machine_bytes) + " end " +
            hex(engine.now());
  std::ostringstream m;
  registry.write_jsonl(m);
  o.metrics = m.str();
  o.edges = std::to_string(edges.count) + " " + std::to_string(edges.hash);
  return o;
}

TEST(RingReplay, MatchesMessageRingBitwiseOnRandomScenarios) {
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario sc = make_scenario(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", n " +
                 std::to_string(sc.n) + ", pairs " + std::to_string(sc.pairs));
    const Outcome msg = run_scenario(sc, false);
    const Outcome rep = run_scenario(sc, true);
    ASSERT_EQ(rep.error, msg.error);
    if (!msg.error.empty()) {
      ++failed;  // both stop at the same check; the clock is not compared
      continue;
    }
    ASSERT_EQ(rep.exits, msg.exits);
    ASSERT_EQ(rep.stats, msg.stats);
    ASSERT_EQ(rep.metrics, msg.metrics);
    ASSERT_EQ(rep.edges, msg.edges);
  }
  EXPECT_LT(failed, 20) << "too few scenarios ran to completion";
}

TEST(RingReplay, SingleRankIsANoOp) {
  runtime::SimEngine engine;
  Network net(engine, ClusterSpec{});
  const std::vector<int> eps = {net.add_endpoint(0)};
  RingReplay rr(net, eps);
  runtime::Process& p = engine.spawn("solo", [&](runtime::Process& self) {
    ring_allreduce(self, Communicator{&net, eps, 0, &rr}, {}, 1000, 10);
  });
  net.bind(eps[0], p);
  engine.run();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(RingReplay, RejectsPayloads) {
  runtime::SimEngine engine;
  Network net(engine, ClusterSpec{});
  const std::vector<int> eps = {net.add_endpoint(0), net.add_endpoint(1)};
  RingReplay rr(net, eps);
  std::vector<float> data(4, 1.0f);
  for (int r = 0; r < 2; ++r) {
    runtime::Process& p =
        engine.spawn("r" + std::to_string(r), [&, r](runtime::Process& self) {
          ring_allreduce(self, Communicator{&net, eps, r, &rr}, data, 16, 10);
        });
    net.bind(eps[static_cast<std::size_t>(r)], p);
  }
  EXPECT_THROW(engine.run(), std::exception);
}

TEST(RingReplay, MissingRankDeadlocksLoudly) {
  // Rank 2 never joins: the others park in the replay with nothing left to
  // run, and the engine reports the deadlock (then unwinds the parked
  // fibers) instead of hanging.
  runtime::SimEngine engine;
  Network net(engine, ClusterSpec{});
  std::vector<int> eps;
  for (int r = 0; r < 3; ++r) eps.push_back(net.add_endpoint(r));
  RingReplay rr(net, eps);
  for (int r = 0; r < 3; ++r) {
    runtime::Process& p =
        engine.spawn("r" + std::to_string(r), [&, r](runtime::Process& self) {
          if (r == 2) return;
          ring_allreduce(self, Communicator{&net, eps, r, &rr}, {}, 3000, 10);
        });
    net.bind(eps[static_cast<std::size_t>(r)], p);
  }
  try {
    engine.run();
    FAIL() << "a ring with a missing rank completed";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dt::net

namespace dt::core {
namespace {

TEST(RingReplay, CostOnlyArsgdSessionWakesOnlyLinearlyPerCollective) {
  // The message ring wakes a receiver per chunk: 2N(N-1) per collective.
  // The replay hands each rank back once, so the engine's wake count stays
  // within 2N per collective — a silent fallback to messages fails this.
  for (const bool wait_free : {false, true}) {
    SCOPED_TRACE(wait_free ? "wait-free BP" : "one bucket");
    TrainConfig cfg;
    cfg.algo = Algo::arsgd;
    cfg.num_workers = 16;
    cfg.cluster.workers_per_machine = 4;
    cfg.opt.wait_free_bp = wait_free;
    cfg.iterations = 3;
    Workload wl = make_cost_workload(cost::resnet50_profile(), 32);
    const metrics::RunResult r = run_training(cfg, wl);
    const std::uint64_t n = 16;
    const std::uint64_t collectives = 3 * (wait_free ? 4 : 1);
    EXPECT_EQ(r.wire_messages, collectives * 2 * n * (n - 1));
    EXPECT_LE(r.sim_wakes, collectives * 2 * n);
  }
}

}  // namespace
}  // namespace dt::core
