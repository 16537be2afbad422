#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "campaign/cache.hpp"
#include "common/rng.hpp"
#include "compress/dgc.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "faults/faults.hpp"
#include "net/collectives.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "profile/critical_path.hpp"
#include "ps/shard_state.hpp"
#include "ps/sharding.hpp"
#include "runtime/sim.hpp"
#include "tensor/ops.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace dt;

constexpr int kTrials = 3;  // timing probes report the median of these

template <typename F>
double median_of(int n, F&& trial) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(trial());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int machines_for(int endpoints, const core::TrainConfig& cfg) {
  const int wpm = cfg.cluster.workers_per_machine;
  return std::max(2, (endpoints + wpm - 1) / wpm);
}

std::vector<float> random_floats(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// ---- runtime -------------------------------------------------------------

/// Host ns per handoff in a bare SimEngine whose `procs` processes pass one
/// token round-robin: each wakes its successor, then blocks in
/// wait_event(); a short advance() per hop exercises the timed path.
double switch_ns(int procs) {
  Scope span("probe.runtime.switch");
  const int p = std::max(2, procs);
  const int rounds = std::max(2, 200000 / p);
  return median_of(kTrials, [&] {
    runtime::SimEngine engine;
    std::vector<runtime::Process*> ring(static_cast<std::size_t>(p));
    for (int k = 0; k < p; ++k) {
      ring[static_cast<std::size_t>(k)] = &engine.spawn(
          "p" + std::to_string(k), [&, k](runtime::Process& self) {
            // Process 0 starts the token only once every other process
            // is blocked, so no wake() can precede its wait_event().
            if (k == 0) self.advance(1e-6);
            for (int r = 0; r < rounds; ++r) {
              if (k != 0 || r != 0) self.wait_event();
              self.advance(1e-9);
              if (k != p - 1 || r != rounds - 1) {
                engine.wake(*ring[static_cast<std::size_t>((k + 1) % p)],
                            self.now());
              }
            }
          });
    }
    const auto t0 = Clock::now();
    engine.run();
    return seconds_since(t0) * 1e9 /
           static_cast<double>(engine.stats().wakes);
  });
}

// ---- net -----------------------------------------------------------------

/// Host ns per Network::send + recv pair: `fan_in` senders on their own
/// machines push `bytes`-sized packets into one receiver on machine 0.
double send_recv_ns(const core::TrainConfig& cfg, int fan_in,
                    std::uint64_t bytes) {
  Scope span("probe.net.send_recv");
  const int machines = machines_for(fan_in + 1, cfg);
  const int wpm = cfg.cluster.workers_per_machine;
  const int per_sender = std::max(1, 100000 / fan_in);
  return median_of(kTrials, [&] {
    runtime::SimEngine engine;
    net::Network net(engine, cfg.cluster.to_spec(machines));
    const int rx = net.add_endpoint(0, "rx");
    std::vector<int> tx;
    for (int i = 0; i < fan_in; ++i) {
      tx.push_back(net.add_endpoint((1 + i / wpm) % machines));
    }
    runtime::Process& receiver =
        engine.spawn("rx", [&](runtime::Process& self) {
          for (int i = 0; i < fan_in * per_sender; ++i) net.recv(self, rx, 1);
        });
    net.bind(rx, receiver);
    for (int i = 0; i < fan_in; ++i) {
      engine.spawn("tx", [&, i](runtime::Process& self) {
        for (int m = 0; m < per_sender; ++m) {
          net::Packet pkt;
          pkt.tag = 1;
          pkt.wire_bytes = bytes;
          net.send(self, tx[static_cast<std::size_t>(i)], rx, std::move(pkt));
        }
      });
    }
    const auto t0 = Clock::now();
    engine.run();
    return seconds_since(t0) * 1e9 / (static_cast<double>(fan_in) * per_sender);
  });
}

struct RingProbe {
  double ms = 0.0;        // host ms per allreduce
  double messages = 0.0;  // wire messages per allreduce
};

/// Cost-only net::ring_allreduce of `bytes` over `n` ranks placed like the
/// workload's workers.
RingProbe ring_allreduce_probe(const core::TrainConfig& cfg, int n,
                               std::uint64_t bytes) {
  Scope span("probe.net.ring_allreduce");
  constexpr int kAllreduces = 3;
  const int wpm = cfg.cluster.workers_per_machine;
  RingProbe out;
  out.ms = median_of(kTrials, [&] {
    runtime::SimEngine engine;
    net::Network net(engine, cfg.cluster.to_spec(machines_for(n, cfg)));
    std::vector<int> eps;
    for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r / wpm));
    for (int r = 0; r < n; ++r) {
      runtime::Process& p =
          engine.spawn("rank", [&, r](runtime::Process& self) {
            const net::Communicator comm{&net, eps, r};
            for (int k = 0; k < kAllreduces; ++k) {
              net::ring_allreduce(self, comm, {}, bytes, 200);
            }
          });
      net.bind(eps[static_cast<std::size_t>(r)], p);
    }
    const auto t0 = Clock::now();
    engine.run();
    out.messages = static_cast<double>(net.stats().messages) / kAllreduces;
    return seconds_since(t0) * 1e3 / kAllreduces;
  });
  return out;
}

/// Host us per exactly-once ReliableTransport::send between two machines
/// under the workload's message faults and retransmission policy.
double reliable_send_us(const core::TrainConfig& cfg, std::uint64_t bytes) {
  Scope span("probe.net.reliable_send");
  constexpr int kSends = 2000;
  faults::FaultConfig fc;
  fc.msg = cfg.faults.msg;
  const faults::FaultPlan plan(fc, cfg.seed, 2);
  const net::ReliableConfig rc{cfg.reliability.timeout_s,
                               cfg.reliability.backoff,
                               cfg.reliability.max_timeout_s,
                               cfg.reliability.max_retransmits};
  return median_of(kTrials, [&] {
    runtime::SimEngine engine;
    net::Network net(engine, cfg.cluster.to_spec(2));
    net.set_faults(&plan);
    const int a = net.add_endpoint(0, "tx");
    const int b = net.add_endpoint(1, "rx");
    net::ReliableTransport rt(net, rc);
    runtime::Process& rx = engine.spawn(
        "rx",
        [&](runtime::Process& self) {
          for (;;) (void)rt.recv(self, b, 1);
        },
        /*daemon=*/true);
    runtime::Process& tx = engine.spawn("tx", [&](runtime::Process& self) {
      for (int i = 0; i < kSends; ++i) {
        net::Packet pkt;
        pkt.tag = 1;
        pkt.wire_bytes = bytes;
        rt.send(self, a, b, std::move(pkt));
      }
    });
    net.bind(a, tx);
    net.bind(b, rx);
    const auto t0 = Clock::now();
    engine.run();
    return seconds_since(t0) * 1e6 / kSends;
  });
}

// ---- tensor / nn ---------------------------------------------------------

struct DenseShape {
  std::int64_t in, out;
};

std::vector<DenseShape> mlp_shapes(const core::FunctionalWorkloadSpec& spec) {
  return {{spec.input_dim, spec.hidden_dim},
          {spec.hidden_dim, spec.hidden_dim},
          {spec.hidden_dim, spec.num_classes}};
}

/// GFLOP/s of the three GEMMs of every Dense layer of the functional model
/// (forward nn, weight-gradient tn, input-gradient nt) at its batch.
double gemm_gflops(const core::FunctionalWorkloadSpec& spec) {
  Scope span("probe.tensor.gemm");
  common::Rng rng(spec.seed);
  const std::int64_t m = spec.batch;
  struct Buffers {
    DenseShape s;
    std::vector<float> a, w, g, c, dw, da;
  };
  std::vector<Buffers> layers;
  for (const DenseShape& s : mlp_shapes(spec)) {
    const auto n = [](std::int64_t x) { return static_cast<std::size_t>(x); };
    layers.push_back({s, random_floats(n(m * s.in), rng),
                      random_floats(n(s.in * s.out), rng),
                      random_floats(n(m * s.out), rng),
                      std::vector<float>(n(m * s.out)),
                      std::vector<float>(n(s.in * s.out)),
                      std::vector<float>(n(m * s.in))});
  }
  return median_of(kTrials, [&] {
    double flops = 0.0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 0.05) {
      for (Buffers& l : layers) {
        tensor::gemm_nn(l.a.data(), l.w.data(), l.c.data(), m, l.s.in,
                        l.s.out, false);
        tensor::gemm_tn(l.a.data(), l.g.data(), l.dw.data(), m, l.s.in,
                        l.s.out, false);
        tensor::gemm_nt(l.g.data(), l.w.data(), l.da.data(), m, l.s.out,
                        l.s.in, false);
        flops += 3.0 * 2.0 * static_cast<double>(m * l.s.in * l.s.out);
      }
    }
    return flops / seconds_since(t0) / 1e9;
  });
}

struct NnProbe {
  double forward_us = 0.0, backward_us = 0.0, optimizer_us = 0.0;
};

/// Median host us per batch of forward (with loss), backward (with
/// zero_grad) and the momentum-SGD step, on the functional model.
NnProbe nn_probe(const core::FunctionalWorkloadSpec& spec, float lr) {
  Scope span("probe.nn");
  constexpr int kBatches = 2000;
  nn::Sequential model;
  const auto shapes = mlp_shapes(spec);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (i > 0) model.add<nn::ReLU>("relu" + std::to_string(i));
    model.add<nn::Dense>("fc" + std::to_string(i + 1), shapes[i].in,
                         shapes[i].out);
  }
  common::Rng rng(spec.seed);
  model.init(rng);
  tensor::Tensor x({spec.batch, spec.input_dim});
  tensor::fill_normal(x, rng, 1.0f);
  std::vector<std::int32_t> labels;
  for (std::int64_t i = 0; i < spec.batch; ++i) {
    labels.push_back(
        static_cast<std::int32_t>(rng.uniform_int(0, spec.num_classes - 1)));
  }
  nn::SoftmaxCrossEntropy loss;
  nn::MomentumSgd opt(spec.sgd);
  std::vector<double> fwd, bwd, upd;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    (void)loss.forward(model.forward(x), labels);
    const auto t1 = Clock::now();
    model.zero_grad();
    model.backward(loss.backward());
    const auto t2 = Clock::now();
    const auto& slots = model.slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      opt.step_slot(i, slots[i]->value.data(), slots[i]->grad.data(), lr);
    }
    const auto t3 = Clock::now();
    fwd.push_back(std::chrono::duration<double>(t1 - t0).count());
    bwd.push_back(std::chrono::duration<double>(t2 - t1).count());
    upd.push_back(std::chrono::duration<double>(t3 - t2).count());
  }
  const auto med_us = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2] * 1e6;
  };
  return {med_us(fwd), med_us(bwd), med_us(upd)};
}

// ---- compress / ps -------------------------------------------------------

std::vector<std::int64_t> slot_sizes(const core::Workload& wl) {
  std::vector<std::int64_t> sizes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    sizes.push_back(wl.slot_numel(i));
  }
  return sizes;
}

/// Host ns per gradient element of DgcCompressor::compress past warm-up,
/// over every slot of the functional model, configured as the DGC run's
/// workers configure it.
double dgc_ns_per_elem(const core::Workload& wl,
                       const core::TrainConfig& dgc_run) {
  Scope span("probe.compress.dgc");
  constexpr int kRounds = 100;
  compress::DgcConfig cfg = dgc_run.opt.dgc_config;
  cfg.num_workers = dgc_run.num_workers;
  cfg.momentum = dgc_run.sgd.momentum;
  const auto sizes = slot_sizes(wl);
  common::Rng rng(dgc_run.seed);
  std::vector<std::vector<float>> grads;
  double elems = 0.0;
  for (std::int64_t n : sizes) {
    grads.push_back(random_floats(static_cast<std::size_t>(n), rng));
    elems += static_cast<double>(n);
  }
  const double epoch = cfg.warmup_epochs + 1.0;
  return median_of(kTrials, [&] {
    compress::DgcCompressor dgc(cfg, sizes);
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t s = 0; s < grads.size(); ++s) {
        (void)dgc.compress(s, grads[s], epoch);
      }
    }
    return seconds_since(t0) * 1e9 / (kRounds * elems);
  });
}

struct PsProbe {
  double apply_ns = 0.0;   // per element, apply_dense
  double staged_ns = 0.0;  // per element per rank, stage_dense + sum
};

/// One ShardState holding every slot of the functional model: dense
/// applies, and the replicated-BSP path (one stage per rank, then the
/// rank-order sum).
PsProbe ps_probe(const core::Workload& wl, const core::TrainConfig& cfg) {
  Scope span("probe.ps.apply");
  constexpr int kApplyRounds = 200;
  constexpr int kStageRounds = 10;
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  const ps::ShardingPlan plan = ps::ShardingPlan::build(bytes, 1);
  ps::ShardState shard(plan, 0, wl, cfg.sgd);
  common::Rng rng(cfg.seed);
  std::vector<std::vector<float>> grads;
  double elems = 0.0;
  for (std::size_t local = 0; local < shard.num_local(); ++local) {
    const auto n = wl.slot_numel(shard.slots()[local]);
    grads.push_back(random_floats(static_cast<std::size_t>(n), rng));
    elems += static_cast<double>(n);
  }
  const int ranks = cfg.num_workers;
  PsProbe out;
  out.apply_ns = median_of(kTrials, [&] {
    const auto t0 = Clock::now();
    for (int r = 0; r < kApplyRounds; ++r) {
      for (std::size_t local = 0; local < grads.size(); ++local) {
        shard.apply_dense(local, grads[local], 1e-3f,
                          1.0f / static_cast<float>(ranks));
      }
    }
    return seconds_since(t0) * 1e9 / (kApplyRounds * elems);
  });
  out.staged_ns = median_of(kTrials, [&] {
    const auto t0 = Clock::now();
    for (int r = 0; r < kStageRounds; ++r) {
      for (std::size_t local = 0; local < grads.size(); ++local) {
        for (int rank = 0; rank < ranks; ++rank) {
          shard.stage_dense(local, rank, grads[local]);
        }
        (void)shard.take_staged_sum(local);
      }
    }
    return seconds_since(t0) * 1e9 / (kStageRounds * elems * ranks);
  });
  return out;
}

// ---- campaign ------------------------------------------------------------

struct CacheProbe {
  double store_us = 0.0, load_us = 0.0;
  bool all_loaded = true;
};

/// RunCache store then load of every produced record, in a fresh directory.
CacheProbe cache_probe(const Ctx& ctx,
                       const std::vector<campaign::RunRecord>& records) {
  Scope span("probe.campaign.cache");
  CacheProbe out;
  if (records.empty()) return out;
  const std::string dir = fresh_dir(ctx, "cache-probe");
  const campaign::RunCache cache(dir);
  const double n = static_cast<double>(records.size());
  auto t0 = Clock::now();
  for (const auto& rec : records) cache.store(rec);
  out.store_us = seconds_since(t0) * 1e6 / n;
  t0 = Clock::now();
  for (const auto& rec : records) {
    out.all_loaded = cache.load(rec.fingerprint).has_value() && out.all_loaded;
  }
  out.load_us = seconds_since(t0) * 1e6 / n;
  std::filesystem::remove_all(dir);
  return out;
}

// ---- counters of the traced repetition -------------------------------------

void run_counters(const RepResult& rep, const std::vector<RunOutcome>& runs,
                  LayerValues& out) {
  double engine_s = 0.0, outside_s = 0.0;
  double events = 0.0, wakes = 0.0, peak = 0.0;
  double messages = 0.0, bytes = 0.0, inter = 0.0;
  for (const RunOutcome& r : runs) {
    engine_s += r.engine_s;
    outside_s += r.run_s - r.engine_s;
    events += static_cast<double>(r.events);
    wakes += static_cast<double>(r.wakes);
    peak = std::max(peak, static_cast<double>(r.peak_ready));
    messages += static_cast<double>(r.messages);
    bytes += static_cast<double>(r.bytes);
    inter += static_cast<double>(r.inter_machine_bytes);
  }
  out["runtime.events"] = events;
  out["runtime.wakes"] = wakes;
  out["runtime.peak_ready"] = peak;
  out["runtime.engine_s"] = engine_s;
  out["runtime.events_per_s"] = engine_s > 0.0 ? events / engine_s : 0.0;
  out["core.setup_s"] = rep.setup_s;
  out["core.outside_engine_s"] = outside_s;
  out["net.messages"] = messages;
  out["net.bytes"] = bytes;
  out["net.inter_machine_bytes"] = inter;
}

std::uint64_t mean_slot_bytes(const core::Workload& wl) {
  return wl.total_wire_bytes() / std::max<std::size_t>(1, wl.num_slots());
}

}  // namespace

std::vector<RunOutcome> ps_bsp_layers(const Ctx& ctx, const RepResult& rep,
                                      LayerValues& out) {
  run_counters(rep, rep.runs, out);
  const auto cfg =
      cost_config(core::Algo::bsp, kPsWorkers, kPsIterations, ctx.seed);
  const auto wl = core::make_cost_workload(cost::vgg16_profile(), kCostBatch);
  out["runtime.switch_ns"] =
      switch_ns(static_cast<int>(rep.runs.front().processes));
  out["net.send_recv_ns"] = send_recv_ns(cfg, kPsWorkers, mean_slot_bytes(wl));
  return {};
}

std::vector<RunOutcome> ring_layers(const Ctx& ctx, const RepResult& rep,
                                    LayerValues& out) {
  run_counters(rep, rep.runs, out);
  const auto cfg =
      cost_config(core::Algo::arsgd, kRingWorkers, kRingIterations, ctx.seed);
  const auto wl = core::make_cost_workload(cost::vgg16_profile(), kCostBatch);
  out["runtime.switch_ns"] =
      switch_ns(static_cast<int>(rep.runs.front().processes));
  // A ring rank receives from one predecessor.
  out["net.send_recv_ns"] = send_recv_ns(cfg, 1, mean_slot_bytes(wl));
  const RingProbe ring =
      ring_allreduce_probe(cfg, kRingWorkers, wl.total_wire_bytes());
  out["net.ring_allreduce_ms"] = ring.ms;
  out["net.ring_messages_per_allreduce"] = ring.messages;
  return {};
}

std::vector<RunOutcome> functional_layers(const Ctx& ctx,
                                          const RepResult& rep,
                                          LayerValues& out) {
  run_counters(rep, rep.runs, out);
  const auto spec = functional_spec(ctx.seed);
  const auto bsp = functional_config(core::Algo::bsp, false, ctx);
  const auto dgc = functional_config(core::Algo::bsp, true, ctx);
  const core::Workload wl = core::make_functional_workload(spec);

  double build_s = 0.0, bsp_bytes = 0.0, dgc_bytes = 0.0;
  for (const RunOutcome& r : rep.runs) {
    build_s += r.build_s;
    if (r.label == "bsp") bsp_bytes = static_cast<double>(r.bytes);
    if (r.label == "bsp+dgc") dgc_bytes = static_cast<double>(r.bytes);
  }
  out["data.build_s"] = build_s;
  out["compress.dgc_wire_ratio"] =
      bsp_bytes > 0.0 ? dgc_bytes / bsp_bytes : 0.0;

  out["runtime.switch_ns"] =
      switch_ns(static_cast<int>(rep.runs.front().processes));
  out["net.send_recv_ns"] =
      send_recv_ns(bsp, kFunctionalWorkers, mean_slot_bytes(wl));
  const RingProbe ring =
      ring_allreduce_probe(bsp, kFunctionalWorkers, wl.total_wire_bytes());
  out["net.ring_allreduce_ms"] = ring.ms;
  out["net.ring_messages_per_allreduce"] = ring.messages;
  out["tensor.gemm_gflops"] = gemm_gflops(spec);
  const NnProbe nn = nn_probe(spec, static_cast<float>(bsp.lr.base_lr));
  out["nn.forward_us"] = nn.forward_us;
  out["nn.backward_us"] = nn.backward_us;
  out["nn.optimizer_us"] = nn.optimizer_us;
  out["compress.dgc_ns_per_elem"] = dgc_ns_per_elem(wl, dgc);
  const PsProbe ps = ps_probe(wl, bsp);
  out["ps.apply_ns_per_elem"] = ps.apply_ns;
  out["ps.staged_sum_ns_per_elem"] = ps.staged_ns;

  // Where is the serial fraction? The same repetition on an nproc-wide
  // offload pool; its results must equal the 1-thread ones bit for bit.
  Ctx pooled = ctx;
  pooled.compute_threads = ctx.nproc;
  RepResult wide;
  {
    Scope span("probe.runtime.offload_nthreads");
    wide = functional_rep(pooled);
  }
  double engine_1 = 0.0, engine_n = 0.0;
  for (std::size_t i = 0; i < wide.runs.size(); ++i) {
    RunOutcome& r = wide.runs[i];
    engine_n += r.engine_s;
    if (i < rep.runs.size()) {
      engine_1 += rep.runs[i].engine_s;
      if (r.fingerprint != rep.runs[i].fingerprint) {
        r.problems.push_back(r.label + ": " + std::to_string(ctx.nproc) +
                             "-thread fingerprint " + r.fingerprint +
                             " != 1-thread " + rep.runs[i].fingerprint);
      }
    }
    r.label = std::to_string(ctx.nproc) + "threads:" + r.label;
  }
  out["runtime.offload_speedup"] = engine_n > 0.0 ? engine_1 / engine_n : 0.0;
  return std::move(wide.runs);
}

std::vector<RunOutcome> campaign_layers(const Ctx& ctx, const RepResult& rep,
                                        LayerValues& out) {
  // Campaign runs execute inside run_campaign, out of reach of the benchmark;
  // the run-level counters come from the first cell (BSP, replicate 0 —
  // it carries the primary crash) re-executed through Session.
  const auto spec = campaign_spec(ctx.seed);
  const auto runs = spec.expand();
  auto exp = core::ExperimentSpec::from_ini(runs.front().resolved);
  exp.config.profile = true;
  exp.config.compute_threads = 1;

  RunOutcome cell = run_session(
      "session:" + runs.front().tag(), exp.config, false, {}, 0,
      [&](core::Session& session, const metrics::RunResult& r) {
        const auto& snap = r.metrics;
        const double sent = static_cast<double>(r.wire_messages);
        const double lost = snap.total("net.lost_total");
        const double dup = snap.total("net.dup_delivered_total");
        out["net.retransmits"] = snap.total("net.retransmits_total");
        out["net.lost"] = lost;
        out["net.dup_delivered"] = dup;
        out["net.goodput_ratio"] =
            sent > 0.0 ? (sent - lost - dup) / sent : 0.0;
        const profile::SpanLog& log = *session.spans();
        out["profile.spans"] = static_cast<double>(log.spans().size());
        out["profile.analyze_ms"] = median_of(kTrials, [&] {
          Scope span("probe.profile.analyze");
          const auto t0 = Clock::now();
          (void)profile::analyze(log, r.virtual_duration, r.num_workers, 0);
          return seconds_since(t0) * 1e3;
        });
      });
  // The re-executed cell must reproduce its cold record.
  if (cell.error.empty() && !rep.cold_records.empty()) {
    const auto& rec = rep.cold_records.front();
    metrics::RunResult from_record;
    from_record.virtual_duration = rec.virtual_duration;
    from_record.total_samples = rec.total_samples;
    from_record.wire_bytes = rec.wire_bytes;
    from_record.wire_messages = rec.wire_messages;
    const std::string want = run_fingerprint(from_record, "");
    if (cell.fingerprint != want) {
      cell.problems.push_back(cell.label + ": Session gives " +
                              cell.fingerprint + ", cold record " + want);
    }
  }
  run_counters(rep, {cell}, out);

  const auto wl = exp.make_workload();
  out["runtime.switch_ns"] = switch_ns(static_cast<int>(cell.processes));
  out["net.send_recv_ns"] =
      send_recv_ns(exp.config, kCampaignWorkers, mean_slot_bytes(wl));
  out["net.reliable_send_us"] =
      reliable_send_us(exp.config, mean_slot_bytes(wl));

  out["campaign.cold_s"] = rep.campaign_cold_s;
  out["campaign.warm_s"] = rep.campaign_warm_s;
  out["campaign.executed"] = rep.campaign_executed;
  out["campaign.cache_hits"] = rep.campaign_cache_hits;
  out["campaign.runner_threads"] = rep.campaign_runner_threads;
  const CacheProbe cache = cache_probe(ctx, rep.cold_records);
  out["campaign.cache_store_us"] = cache.store_us;
  out["campaign.cache_load_us"] = cache.load_us;
  if (!cache.all_loaded) {
    cell.problems.push_back("RunCache probe: a stored record failed to load");
  }
  return {cell};
}

}  // namespace pb
