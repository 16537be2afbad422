// Decentralized distributed training algorithms: AR-SGD, GoSGD, AD-PSGD
// (paper Section IV). No parameter server; workers exchange gradients
// (AR-SGD, via ring AllReduce) or whole parameter vectors (GoSGD/AD-PSGD,
// peer-to-peer, with background receiver processes standing in for the
// papers' communication threads).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compress/dgc.hpp"
#include "core/algo_common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "metrics/metrics.hpp"
#include "net/collectives.hpp"
#include "net/ring_replay.hpp"

namespace dt::core {

namespace {

using metrics::Phase;
using metrics::PhaseTimer;
using net::Packet;

std::uint64_t model_wire_bytes(const Session& s) {
  return s.wl.total_wire_bytes();
}

/// Whole-model parameter packet (decentralized exchanges).
Packet param_packet(Session& s, int rank, int tag) {
  Packet pkt;
  pkt.tag = tag;
  pkt.a = rank;
  pkt.wire_bytes = model_wire_bytes(s);
  if (s.wl.functional()) pkt.emplace_payload().tensors = s.wl.params(rank);
  return pkt;
}

/// Post-reboot recovery for peer-to-peer algorithms: restore the last local
/// checkpoint, or copy the replica of the nearest alive peer. The copy is a
/// modeled out-of-band transfer (Network::transfer), so no packet lands in
/// any mailbox and the normal message protocol is undisturbed.
void recover_from_peer(Session& s, runtime::Process& self, int rank,
                       CrashCheckpoint& ck) {
  if (ck.restore(s, self, rank)) return;
  const int n = s.cfg.num_workers;
  int src = -1;
  for (int d = 1; d < n; ++d) {
    const int cand = (rank + d) % n;
    if (!s.rank_down(cand, self.now())) {
      src = cand;
      break;
    }
  }
  if (src < 0) return;  // no alive peer: resume from reboot-local state
  s.network->transfer(self, s.worker_ep[static_cast<std::size_t>(src)],
                      s.worker_ep[static_cast<std::size_t>(rank)],
                      model_wire_bytes(s));
  if (s.wl.functional()) s.wl.set_params(rank, s.wl.params(src));
}

// ======================== AR-SGD ===========================================
//
// Synchronous ring AllReduce of gradients every iteration (Reduce-Scatter +
// All-Gather, as implemented in MPICH). With wait-free BP the parameter
// slots are grouped into a few buckets, and each bucket's AllReduce starts
// as soon as its share of the backward pass finishes — communication of
// bucket b overlaps computation of bucket b-1.

struct Bucket {
  std::size_t first_slot = 0;  // slots [first, last) in forward order
  std::size_t last_slot = 0;
  std::int64_t numel = 0;          // functional elements
  std::uint64_t wire_bytes = 0;
  double bwd_time = 0.0;           // nominal backward share
};

std::vector<Bucket> make_buckets(const Session& s, int desired) {
  const std::size_t n = s.wl.num_slots();
  const int count =
      std::clamp<int>(desired, 1, static_cast<int>(n));
  std::vector<Bucket> buckets(static_cast<std::size_t>(count));
  // Contiguous slot ranges, near-equal in slot count.
  for (int b = 0; b < count; ++b) {
    const std::size_t first = n * static_cast<std::size_t>(b) /
                              static_cast<std::size_t>(count);
    const std::size_t last = n * static_cast<std::size_t>(b + 1) /
                             static_cast<std::size_t>(count);
    Bucket& bk = buckets[static_cast<std::size_t>(b)];
    bk.first_slot = first;
    bk.last_slot = last;
    for (std::size_t slot = first; slot < last; ++slot) {
      bk.numel += s.wl.slot_numel(slot);
      bk.wire_bytes += s.wl.slot_wire_bytes(slot);
      bk.bwd_time += s.wl.backward_slot_time(slot);
    }
  }
  return buckets;
}

bool ring_repair_active(const Session& s);

/// True when AR-SGD's collectives are replayed without chunk packets
/// (net::RingReplay): cost-only, so no payload moves; no message faults,
/// so no chunk is lost, duplicated or reordered; and not the elastic ring,
/// whose rounds abort and retry on view changes. Everything else keeps the
/// message ring, the reference the replay reproduces bit for bit.
bool ring_replay_eligible(const Session& s) {
  return !s.wl.functional() && !s.fault_plan.has_message_faults() &&
         !ring_repair_active(s);
}

void launch_arsgd_impl(Session& s) {
  const int n = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n);
  const bool dgc_on = s.cfg.opt.dgc;
  const double dgc_density =
      1.0 - compress::DgcCompressor::sparsity_at(s.cfg.opt.dgc_config, 1e9);
  std::shared_ptr<net::RingReplay> replay;
  if (ring_replay_eligible(s)) {
    replay = std::make_shared<net::RingReplay>(*s.network, s.worker_ep);
  }

  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, n, inv_n, dgc_on, dgc_density,
         replay](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);

          net::Communicator comm{.net = s.network.get(),
                                 .endpoints = s.worker_ep,
                                 .my_rank = rank,
                                 .replay = replay.get()};
          const int right_ep =
              s.worker_ep[static_cast<std::size_t>((rank + 1) % n)];

          std::unique_ptr<compress::DgcCompressor> dgc;
          if (dgc_on && s.wl.functional()) {
            std::vector<std::int64_t> sizes;
            for (std::size_t i = 0; i < s.wl.num_slots(); ++i) {
              sizes.push_back(s.wl.slot_numel(i));
            }
            compress::DgcConfig dcfg = s.cfg.opt.dgc_config;
            dcfg.num_workers = n;
            dcfg.momentum = s.cfg.sgd.momentum;
            dgc = std::make_unique<compress::DgcCompressor>(dcfg,
                                                            std::move(sizes));
          }

          const auto buckets =
              make_buckets(s, s.cfg.opt.wait_free_bp ? 4 : 1);
          const std::int64_t iters = s.iterations_per_worker();
          const bool fn = s.wl.functional();

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              // The ring stalls while this rank is down (no bucket's
              // collective can complete without it), so every peer replica
              // is frozen at this rank's own step — copy the right
              // neighbor's. Checkpoint restore is never used: resuming an
              // older step would desynchronize the ring. The mailbox is NOT
              // drained; it may hold valid in-step ring chunks.
              if (n > 1) {
                const int src = (rank + 1) % n;
                s.network->transfer(
                    self, s.worker_ep[static_cast<std::size_t>(src)], wep,
                    model_wire_bytes(s));
                if (fn) s.wl.set_params(rank, s.wl.params(src));
              }
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // AR-SGD workers touch only their own replica until the
              // AllReduce below, so forward+backward can run on the host
              // pool over the modeled forward interval (see
              // Process::advance_compute; the RNG draw stays on the
              // simulated thread).
              const double fwd =
                  s.fault_stretch(self, rank, s.wl.forward_time(rng));
              if (fn) {
                self.advance_compute(
                    fwd, [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
              } else {
                self.advance(fwd);
              }
              if (!s.cfg.opt.wait_free_bp) {
                self.advance(
                    s.fault_stretch(self, rank, s.wl.backward_time(rng)));
              }
            }

            // AllReduce per bucket, last bucket (output layers) first —
            // with wait-free BP its backward share is advanced right
            // before its collective, so buckets pipeline.
            double nominal_bwd = 0.0;
            for (const auto& b : buckets) nominal_bwd += b.bwd_time;
            const double total_bwd =
                s.cfg.opt.wait_free_bp
                    ? s.fault_stretch(self, rank, s.wl.backward_time(rng))
                    : 0.0;
            const double bwd_scale =
                nominal_bwd > 0.0 ? total_bwd / nominal_bwd : 0.0;

            std::vector<float> flat;  // gradient buffer for current bucket
            for (std::size_t bi = buckets.size(); bi-- > 0;) {
              const Bucket& bucket = buckets[bi];
              if (s.cfg.opt.wait_free_bp) {
                PhaseTimer t(self, wm, Phase::compute);
                self.advance(bucket.bwd_time * bwd_scale);
              }

              flat.clear();
              std::uint64_t wire = bucket.wire_bytes;
              if (fn) {
                flat.assign(static_cast<std::size_t>(bucket.numel), 0.0f);
                std::size_t off = 0;
                std::uint64_t sparse_wire = 0;
                for (std::size_t slot = bucket.first_slot;
                     slot < bucket.last_slot; ++slot) {
                  const auto& g = s.wl.grad_slot(rank, slot);
                  if (dgc) {
                    // DGC mask: only the selected entries enter the
                    // AllReduce; the wire cost is the sparse encoding.
                    auto sp = dgc->compress(slot, g.data(), epoch);
                    for (std::size_t j = 0; j < sp.indices.size(); ++j) {
                      flat[off + sp.indices[j]] = sp.values[j];
                    }
                    sparse_wire += sp.wire_bytes();
                  } else {
                    std::copy(g.data().begin(), g.data().end(),
                              flat.begin() + static_cast<std::ptrdiff_t>(off));
                  }
                  off += static_cast<std::size_t>(s.wl.slot_numel(slot));
                }
                if (dgc) wire = std::max<std::uint64_t>(8, sparse_wire);
              } else if (dgc_on) {
                wire = std::max<std::uint64_t>(
                    8, static_cast<std::uint64_t>(
                           static_cast<double>(wire) * dgc_density * 2.0));
              }

              const double t0 = self.now();
              net::ring_allreduce(self, comm, flat, wire,
                                  kTagAllreduce + 2 * static_cast<int>(bi));
              const std::uint64_t chunk =
                  std::max<std::uint64_t>(1, wire / static_cast<std::uint64_t>(n));
              const double est =
                  2.0 * static_cast<double>(n - 1) *
                  s.uncontended_time(chunk, wep, right_ep);
              account_window(self, wm, t0, est, sync);

              if (fn) {
                // Average and apply this bucket's slots locally. Every
                // worker applies the identical averaged gradient, so
                // replicas stay synchronized like BSP.
                std::size_t off = 0;
                for (std::size_t slot = bucket.first_slot;
                     slot < bucket.last_slot; ++slot) {
                  const auto numel =
                      static_cast<std::size_t>(s.wl.slot_numel(slot));
                  tensor::Tensor g(s.wl.grad_slot(rank, slot).shape());
                  for (std::size_t j = 0; j < numel; ++j) {
                    g[j] = flat[off + j] * inv_n;
                  }
                  off += numel;
                  s.wl.apply_slot_gradient(rank, slot, g, lr);
                }
              }
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
        });
  }
}

// ---- elastic ring repair (membership views; docs/faults.md) ---------------
//
// AR-SGD and D-PSGD under sync_policy=drop rebuild their ring from the
// oracle's epoch-numbered views: survivors abort the in-flight round when a
// new view is published, flush the aborted round's parked chunks, and
// deterministically re-form the ring over the live member set (chunk ranges
// rescale inside net::collectives). A crashed rank pulls state from its
// nearest live member and is readmitted at the next epoch boundary.

/// True when the launcher must use the view-driven elastic path. Kept
/// narrower than membership_engaged(): enabled-only runs (measurement) keep
/// the legacy stall behavior bit-identical.
bool ring_repair_active(const Session& s) {
  return s.membership_engaged() && s.fault_plan.has_crashes() &&
         s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
}

/// Communicator over the view's member set; my_rank is the index of `rank`
/// in the (sorted) member list. `rank` must be a member.
net::Communicator view_comm(Session& s, const std::vector<int>& members,
                            int rank) {
  net::Communicator comm{.net = s.network.get(), .endpoints = {}, .my_rank = 0};
  comm.endpoints.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    comm.endpoints.push_back(
        s.worker_ep[static_cast<std::size_t>(members[i])]);
    if (members[i] == rank) comm.my_rank = static_cast<int>(i);
  }
  return comm;
}

/// Nearest live view member clockwise of `rank` (-1 when none).
int nearest_live_member(Session& s, runtime::Process& self, int rank) {
  const int n = s.cfg.num_workers;
  for (int d = 1; d < n; ++d) {
    const int cand = (rank + d) % n;
    if (!s.oracle().in_view(cand)) continue;
    if (s.rank_down(cand, self.now())) continue;
    return cand;
  }
  return -1;
}

/// Post-reboot recovery for the elastic ring (the drop-mode counterpart of
/// recover_from_peer). Two cases:
///
///  * still in the view — the outage was refuted before eviction, so the
///    ring stalled but never re-formed and peers are parked inside the
///    current round. Copy the nearest live member's replica and resume;
///    no abort happened, the round completes normally.
///  * evicted — pull state from a live member of the current view via an
///    out-of-band transfer, re-pulling when the view moves or the source
///    dies mid-pull (crash-during-repair: the copied bytes could span two
///    versions), then request readmission. The detector publishes it at
///    the next epoch boundary; survivors abort their round and re-form
///    the ring including this rank.
void elastic_rejoin(Session& s, runtime::Process& self, int rank) {
  auto& oracle = s.oracle();
  const double poll = oracle.config().period_s;
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  const bool fn = s.wl.functional();

  if (oracle.in_view(rank)) {
    const int src = nearest_live_member(s, self, rank);
    if (src >= 0) {
      s.network->transfer(self, s.worker_ep[static_cast<std::size_t>(src)],
                          wep, model_wire_bytes(s));
      if (fn) s.wl.set_params(rank, s.wl.params(src));
    }
    return;
  }

  for (;;) {
    if (oracle.view().members.empty()) break;  // no state holder left
    const std::int64_t e = oracle.epoch();
    const int src = nearest_live_member(s, self, rank);
    if (src < 0) {
      self.advance(poll);  // members exist but are all down — wait
      continue;
    }
    s.network->transfer(self, s.worker_ep[static_cast<std::size_t>(src)],
                        wep, model_wire_bytes(s));
    if (oracle.epoch() == e && !s.rank_down(src, self.now())) {
      if (fn) s.wl.set_params(rank, s.wl.params(src));
      break;
    }
  }
  oracle.request_join(rank);
  while (!oracle.in_view(rank)) self.advance(poll);
}

/// AR-SGD with ring repair: each round reduces ONE dense bucket over the
/// current view's ring via the elastic collective, retrying under
/// successive views until an attempt completes, and rescales by the
/// contributor count of the completed round.
void launch_arsgd_elastic(Session& s) {
  const int n = s.cfg.num_workers;
  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          auto& oracle = s.oracle();
          const double poll = oracle.config().period_s;

          // One dense bucket per round: a retry re-reduces the whole
          // gradient, so per-bucket pipelining (wait-free BP) and
          // compression are excluded by the Session validation.
          const Bucket bucket = make_buckets(s, 1).front();
          const std::int64_t iters = s.iterations_per_worker();
          const bool fn = s.wl.functional();

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              elastic_rejoin(s, self, rank);
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              const double fwd =
                  s.fault_stretch(self, rank, s.wl.forward_time(rng));
              if (fn) {
                self.advance_compute(fwd, [&s, &loss, rank] {
                  loss = s.wl.compute_gradients(rank);
                });
              } else {
                self.advance(fwd);
              }
              self.advance(
                  s.fault_stretch(self, rank, s.wl.backward_time(rng)));
            }

            // Pristine flattened gradient: every retry re-reduces from
            // this copy (an aborted attempt leaves partial sums in `work`).
            std::vector<float> flat;
            if (fn) {
              flat.assign(static_cast<std::size_t>(bucket.numel), 0.0f);
              std::size_t off = 0;
              for (std::size_t slot = bucket.first_slot;
                   slot < bucket.last_slot; ++slot) {
                const auto& g = s.wl.grad_slot(rank, slot);
                std::copy(g.data().begin(), g.data().end(),
                          flat.begin() + static_cast<std::ptrdiff_t>(off));
                off += static_cast<std::size_t>(s.wl.slot_numel(slot));
              }
            }

            const double t0 = self.now();
            std::vector<float> work;
            int contributors = 1;
            double est = 0.0;
            for (;;) {
              if (!oracle.in_view(rank)) {
                // Evicted while live (a straggler silent beyond
                // timeout+confirm): ask back in, wait for the boundary.
                oracle.request_join(rank);
                self.advance(poll);
                continue;
              }
              const std::int64_t e = oracle.epoch();
              const std::vector<int> members = oracle.view().members;
              if (members.size() <= 1) {
                work = flat;  // solo round: own gradient, scale 1
                break;
              }
              s.mprobes.flushed_packets->inc(net::flush_stale_epochs(
                  self, *s.network, wep, kTagElasticAllreduce, e));
              const net::Communicator comm = view_comm(s, members, rank);
              work = flat;
              const net::ElasticStatus st = net::ring_allreduce_elastic(
                  self, comm, work, bucket.wire_bytes, kTagElasticAllreduce,
                  e, poll, [&oracle, e] { return oracle.epoch() != e; });
              if (st.completed) {
                const int k = comm.size();
                const std::uint64_t chunk = std::max<std::uint64_t>(
                    1, bucket.wire_bytes / static_cast<std::uint64_t>(k));
                const int right_ep = comm.endpoints[static_cast<std::size_t>(
                    (comm.my_rank + 1) % k)];
                est = 2.0 * static_cast<double>(k - 1) *
                      s.uncontended_time(chunk, wep, right_ep);
                contributors = k;
                break;
              }
              s.mprobes.aborted_rounds->inc();
            }
            account_window(self, wm, t0, est, sync);

            if (fn) {
              // Average over the contributors of the COMPLETED round and
              // apply locally: every member of that round applies the
              // identical averaged gradient, so their replicas stay
              // synchronized.
              const float inv = 1.0f / static_cast<float>(contributors);
              std::size_t off = 0;
              for (std::size_t slot = bucket.first_slot;
                   slot < bucket.last_slot; ++slot) {
                const auto numel =
                    static_cast<std::size_t>(s.wl.slot_numel(slot));
                tensor::Tensor g(s.wl.grad_slot(rank, slot).shape());
                for (std::size_t j = 0; j < numel; ++j) {
                  g[j] = work[off + j] * inv;
                }
                off += numel;
                s.wl.apply_slot_gradient(rank, slot, g, lr);
              }
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          // Leave the view (immediate publication): remaining members
          // shrink their ring instead of waiting on a departed peer.
          s.mark_finished(rank, self.now());
        });
  }
}

// ======================== GoSGD ============================================
//
// Asymmetric gossip: with probability p per iteration a worker halves its
// mixing weight and pushes (params, weight) to a uniformly random peer,
// continuing immediately. A background receiver process per worker merges
// incoming pushes by weighted averaging (Blot et al.).

void launch_gosgd_impl(Session& s) {
  const int n = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n);
  auto weights = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));

  // Receiver daemons (the paper's background communication threads).
  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "gossip-rx" + std::to_string(rank),
        [&s, rank, weights](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          metrics::Counter& recvs = s.registry.counter(
              "gossip.recvs_total", {{"worker", std::to_string(rank)}});
          for (;;) {
            Packet pkt = s.network->recv(self, wep, kTagGossip);
            recvs.inc();
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            if (s.fault_plan.has_crashes() &&
                s.rank_down(rank, self.now())) {
              // Push addressed to a crashed incarnation: the parameters and
              // their gossip weight are lost (the sender already halved).
              if (s.fprobes.dropped_pushes != nullptr) {
                s.fprobes.dropped_pushes->inc();
              }
              continue;
            }
            auto& w = *weights;
            const double w_self = w[static_cast<std::size_t>(rank)];
            const double w_in = pkt.x;
            const double w_new = w_self + w_in;
            if (s.wl.functional()) {
              s.wl.blend_params(rank, pkt.tensors(),
                                static_cast<float>(w_in / w_new));
            }
            w[static_cast<std::size_t>(rank)] = w_new;
          }
        },
        /*daemon=*/true);
  }

  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, n, inv_n, weights](runtime::Process& self) {
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          metrics::Counter& sends = s.registry.counter(
              "gossip.sends_total", {{"worker", std::to_string(rank)}});
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          const std::int64_t iters = s.iterations_per_worker();
          CrashCheckpoint ck = CrashCheckpoint::make(s);

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              recover_from_peer(s, self, rank, ck);
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // NOT offloaded (advance_compute): the gossip rx daemon may
              // blend incoming parameters into this worker's replica at any
              // virtual instant of the compute interval, so the replica is
              // not private to the closure.
              if (s.wl.functional()) loss = s.wl.compute_gradients(rank);
              self.advance(
                  s.fault_stretch(self, rank, s.wl.forward_time(rng)));
              self.advance(
                  s.fault_stretch(self, rank, s.wl.backward_time(rng)));
            }
            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);
            }

            if (n > 1 && rng.bernoulli(s.cfg.gosgd_p)) {
              PhaseTimer t(self, wm, Phase::comm);
              int target = static_cast<int>(
                  rng.uniform_u64(static_cast<std::uint64_t>(n - 1)));
              if (target >= rank) ++target;
              // Peer-selection check AFTER the draws so the RNG stream is
              // identical with and without live crashes.
              if (s.fault_plan.has_crashes() &&
                  s.rank_down(target, self.now())) {
                if (s.fprobes.skipped_peers != nullptr) {
                  s.fprobes.skipped_peers->inc();
                }
              } else {
                auto& w = *weights;
                w[static_cast<std::size_t>(rank)] /= 2.0;
                Packet pkt = param_packet(s, rank, kTagGossip);
                pkt.x = w[static_cast<std::size_t>(rank)];
                // Fire-and-forget: only the send overhead blocks the sender.
                s.network->send(
                    self, wep, s.worker_ep[static_cast<std::size_t>(target)],
                    std::move(pkt));
                sends.inc();
              }
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
        });
  }
}

// ======================== AD-PSGD ==========================================
//
// Symmetric pairwise averaging on a bipartite graph (actives = even ranks,
// passives = odd ranks) to guarantee deadlock freedom (Lian et al.). The
// active sends its params, overlaps gradient computation with the wait,
// then both sides hold the average. A passive responder daemon models the
// paper's background communication thread.

void launch_adpsgd_impl(Session& s) {
  const int n = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n);

  std::vector<int> passives;
  for (int r = 1; r < n; r += 2) passives.push_back(r);

  // Passive responder daemons.
  for (int rank : passives) {
    s.engine.spawn(
        "adpsgd-rx" + std::to_string(rank),
        [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          metrics::Counter& serves = s.registry.counter(
              "adpsgd.serves_total", {{"worker", std::to_string(rank)}});
          for (;;) {
            Packet pkt = s.network->recv(self, wep, kTagAdpsgdReq);
            serves.inc();
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            // Reply with the pre-blend parameters so both sides end at the
            // same average, then blend locally. The reply is UNCONDITIONAL
            // — even while this rank is down — so an active whose request
            // raced the crash is never left blocking (deadlock freedom);
            // only the local blend is skipped for a dead incarnation.
            Packet reply = param_packet(s, rank, kTagAdpsgdReply);
            s.network->send(self, wep, pkt.src_endpoint, std::move(reply));
            if (s.fault_plan.has_crashes() &&
                s.rank_down(rank, self.now())) {
              if (s.fprobes.dropped_pushes != nullptr) {
                s.fprobes.dropped_pushes->inc();
              }
            } else if (s.wl.functional()) {
              s.wl.blend_params(rank, pkt.tensors(), 0.5f);
            }
          }
        },
        /*daemon=*/true);
  }

  for (int rank = 0; rank < n; ++rank) {
    const bool active = rank % 2 == 0 && !passives.empty();
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, active, passives, inv_n](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          if (active) s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          metrics::Counter& exchanges = s.registry.counter(
              "adpsgd.exchanges_total", {{"worker", std::to_string(rank)}});
          const std::int64_t iters = s.iterations_per_worker();
          CrashCheckpoint ck = CrashCheckpoint::make(s);

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              recover_from_peer(s, self, rank, ck);
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            int peer_ep = -1;
            if (active) {
              // Start the exchange, then compute while it is in flight.
              PhaseTimer t(self, wm, Phase::comm);
              const int peer = passives[static_cast<std::size_t>(
                  rng.uniform_u64(passives.size()))];
              // Down-check AFTER the draw: RNG stream identical with and
              // without live crashes. A down peer skips the whole exchange
              // this iteration (its responder only answers raced requests).
              if (s.fault_plan.has_crashes() &&
                  s.rank_down(peer, self.now())) {
                if (s.fprobes.skipped_peers != nullptr) {
                  s.fprobes.skipped_peers->inc();
                }
              } else {
                peer_ep = s.worker_ep[static_cast<std::size_t>(peer)];
                Packet pkt = param_packet(s, rank, kTagAdpsgdReq);
                s.network->send(self, wep, peer_ep, std::move(pkt));
              }
            }

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // NOT offloaded (advance_compute): passive ranks run a
              // responder daemon that blends a peer's parameters into this
              // replica mid-interval, so the replica is not private to the
              // closure. Active ranks share this code path.
              if (s.wl.functional()) loss = s.wl.compute_gradients(rank);
              self.advance(
                  s.fault_stretch(self, rank, s.wl.forward_time(rng)));
              self.advance(
                  s.fault_stretch(self, rank, s.wl.backward_time(rng)));
            }

            if (active && peer_ep >= 0) {
              const double t0 = self.now();
              Packet reply = s.network->recv(self, wep, kTagAdpsgdReply);
              const double est =
                  2.0 * s.uncontended_time(reply.wire_bytes, wep, peer_ep);
              account_window(self, wm, t0, est, sync);
              exchanges.inc();
              if (s.wl.functional()) {
                s.wl.blend_params(rank, reply.tensors(), 0.5f);
              }
            }

            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
        });
  }
}

// ======================== D-PSGD ===========================================
//
// Synchronous decentralized SGD on a ring (Lian et al. 2017): each
// iteration every worker exchanges parameters with both ring neighbors,
// replaces its parameters by the uniform average of {self, neighbors} and
// then applies its own gradient (computed at the pre-averaging point).
// Extension beyond the paper's selected seven. Iteration parity is encoded
// in the tag so a worker one step ahead cannot feed next-iteration
// parameters into a neighbor still collecting the current ones.

void launch_dpsgd_impl(Session& s) {
  const int n = s.cfg.num_workers;

  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, n](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const std::int64_t iters = s.iterations_per_worker();

          // Unique ring neighbors (one when n == 2, none when n == 1).
          std::vector<int> neighbors;
          if (n > 1) neighbors.push_back((rank + 1) % n);
          if (n > 2) neighbors.push_back((rank + n - 1) % n);
          CrashCheckpoint ck = CrashCheckpoint::make(s);

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // Neighbors stall in their recv of this iteration's parity
              // tag until the rejoined rank re-sends below. The mailbox is
              // NOT drained; it holds their valid in-iteration packets.
              s.take_crash(self, rank);
              recover_from_peer(s, self, rank, ck);
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);
            const int tag = kTagDpsgd + static_cast<int>(it % 2);

            {
              PhaseTimer t(self, wm, Phase::comm);
              // One parameter snapshot shared by every neighbor send: the
              // Packet copies below bump the payload refcount instead of
              // duplicating the model. Safe because only this rank's own
              // process blends into its replica (after the recv below).
              const Packet proto = param_packet(s, rank, tag);
              for (int nb : neighbors) {
                Packet pkt = proto;
                s.network->send(self, wep,
                                s.worker_ep[static_cast<std::size_t>(nb)],
                                std::move(pkt));
              }
            }

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // Neighbor parameters are blended only on this process's own
              // thread (after the recv below), so the replica is private for
              // the whole compute interval and the numerics can be offloaded.
              const double fwd =
                  s.fault_stretch(self, rank, s.wl.forward_time(rng));
              if (s.wl.functional()) {
                self.advance_compute(
                    fwd, [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
              } else {
                self.advance(fwd);
              }
              self.advance(
                  s.fault_stretch(self, rank, s.wl.backward_time(rng)));
            }

            if (!neighbors.empty()) {
              const double t0 = self.now();
              std::vector<Packet> received;
              received.reserve(neighbors.size());
              for (std::size_t i = 0; i < neighbors.size(); ++i) {
                received.push_back(s.network->recv(self, wep, tag));
              }
              const double est =
                  2.0 * s.uncontended_time(
                            received.front().wire_bytes, wep,
                            s.worker_ep[static_cast<std::size_t>(
                                neighbors.front())]);
              account_window(self, wm, t0, est, sync);

              if (s.wl.functional()) {
                // Uniform average over {self} u neighbors via sequential
                // convex blends: blending packet k (0-based) with weight
                // 1/(k+2) keeps a running mean.
                for (std::size_t k = 0; k < received.size(); ++k) {
                  s.wl.blend_params(rank, received[k].tensors(),
                                    1.0f / static_cast<float>(k + 2));
                }
              }
            }

            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
        });
  }
}

/// D-PSGD with ring repair: neighbors come from the current view's ring,
/// round parity is counted per epoch (every member resets its counter when
/// a new view is published, so neighbor parities realign after any abort),
/// and a round whose exchange aborts on a view change falls back to a solo
/// step (own gradient only) instead of retrying — parameters were already
/// sent, so the retry semantics of AR-SGD do not apply.
void launch_dpsgd_elastic(Session& s) {
  const int n = s.cfg.num_workers;
  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          auto& oracle = s.oracle();
          const double poll = oracle.config().period_s;
          const std::int64_t iters = s.iterations_per_worker();
          const bool fn = s.wl.functional();

          std::int64_t seen_epoch = oracle.epoch();
          std::int64_t rounds_in_epoch = 0;

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              elastic_rejoin(s, self, rank);
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            const std::int64_t e = oracle.epoch();
            if (e != seen_epoch) {
              seen_epoch = e;
              rounds_in_epoch = 0;
            }
            const bool in_view = oracle.in_view(rank);
            // Evicted while live: run solo rounds, asking back in; the
            // readmission lands at the next epoch boundary.
            if (!in_view) oracle.request_join(rank);

            // Unique ring neighbors within the view.
            std::vector<int> nbrs;
            if (in_view) {
              const std::vector<int>& members = oracle.view().members;
              const int k = static_cast<int>(members.size());
              if (k > 1) {
                int idx = 0;
                for (int i = 0; i < k; ++i) {
                  if (members[static_cast<std::size_t>(i)] == rank) idx = i;
                }
                nbrs.push_back(
                    members[static_cast<std::size_t>((idx + 1) % k)]);
                const int prev =
                    members[static_cast<std::size_t>((idx + k - 1) % k)];
                if (prev != nbrs.front()) nbrs.push_back(prev);
              }
            }
            const int tag = net::epoch_tag_base(kTagElasticDpsgd, e) +
                            static_cast<int>(rounds_in_epoch % 2);

            if (!nbrs.empty()) {
              PhaseTimer t(self, wm, Phase::comm);
              s.mprobes.flushed_packets->inc(net::flush_stale_epochs(
                  self, *s.network, wep, kTagElasticDpsgd, e));
              // One parameter snapshot shared by every neighbor send (the
              // copies bump the payload refcount); Packet.c carries the
              // epoch so a neighbor in another view discards it.
              Packet proto = param_packet(s, rank, tag);
              proto.c = e;
              for (int nb : nbrs) {
                Packet pkt = proto;
                s.network->send(self, wep,
                                s.worker_ep[static_cast<std::size_t>(nb)],
                                std::move(pkt));
              }
            }

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // Replica private for the whole interval (neighbor blends
              // happen below on this thread), so numerics can offload.
              const double fwd =
                  s.fault_stretch(self, rank, s.wl.forward_time(rng));
              if (fn) {
                self.advance_compute(fwd, [&s, &loss, rank] {
                  loss = s.wl.compute_gradients(rank);
                });
              } else {
                self.advance(fwd);
              }
              self.advance(
                  s.fault_stretch(self, rank, s.wl.backward_time(rng)));
            }

            if (!nbrs.empty()) {
              const double t0 = self.now();
              std::vector<Packet> received;
              bool aborted = false;
              while (received.size() < nbrs.size()) {
                if (oracle.epoch() != e) {
                  aborted = true;
                  break;
                }
                std::optional<Packet> pkt =
                    s.network->recv_until(self, wep, tag, self.now() + poll);
                if (!pkt.has_value()) continue;
                if (pkt->c != e) continue;  // stale aliased-epoch packet
                received.push_back(std::move(*pkt));
              }
              double est = 0.0;
              if (aborted) {
                s.mprobes.aborted_rounds->inc();
              } else {
                est = 2.0 * s.uncontended_time(
                                received.front().wire_bytes, wep,
                                s.worker_ep[static_cast<std::size_t>(
                                    nbrs.front())]);
              }
              account_window(self, wm, t0, est, sync);
              if (!aborted && fn) {
                // Uniform average over {self} u neighbors via sequential
                // convex blends (running mean, weight 1/(k+2)).
                for (std::size_t k = 0; k < received.size(); ++k) {
                  s.wl.blend_params(rank, received[k].tensors(),
                                    1.0f / static_cast<float>(k + 2));
                }
              }
            }

            if (fn) s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);

            if (oracle.epoch() == e) ++rounds_in_epoch;
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          s.mark_finished(rank, self.now());
        });
  }
}

}  // namespace

void launch_arsgd(Session& s) {
  if (ring_repair_active(s)) {
    launch_arsgd_elastic(s);
    return;
  }
  launch_arsgd_impl(s);
}
void launch_gosgd(Session& s) { launch_gosgd_impl(s); }
void launch_adpsgd(Session& s) { launch_adpsgd_impl(s); }
void launch_dpsgd(Session& s) {
  if (ring_repair_active(s)) {
    launch_dpsgd_elastic(s);
    return;
  }
  launch_dpsgd_impl(s);
}

}  // namespace dt::core
