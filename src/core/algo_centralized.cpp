// Centralized distributed training algorithms: BSP, ASP, SSP, DSSP, EASGD
// (paper Section III; DSSP follows Zhao et al. 2019), over the PS
// framework of src/ps. Each protocol is written once against PsLink, the
// transport seam: the same code runs on the plain network and on the
// reliable transport with replicated shards (docs/faults.md).
//
// Wire protocol recap (see core/protocol.hpp): gradient pushes and parameter
// replies are per-slot packets; each slot is owned by one PS shard
// (layer-wise sharding). Learning-rate convention: packets carry the
// *global* schedule value lr(epoch) = 0.05*N-style; synchronous algorithms
// apply it to the averaged gradient, asynchronous ones apply lr/N to each
// individual gradient so all algorithms target the same effective step.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "core/algo_common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "core/staleness_policy.hpp"
#include "metrics/metrics.hpp"
#include "net/reliable.hpp"

namespace dt::core {

namespace {

using metrics::Phase;
using metrics::PhaseTimer;
using net::Packet;

bool use_dgc(const Session& s) {
  return s.cfg.opt.dgc && sends_gradients(s.cfg.algo);
}

bool use_qsgd(const Session& s) {
  return !use_dgc(s) && s.cfg.opt.qsgd_bits >= 2 &&
         sends_gradients(s.cfg.algo);
}

/// DGC density used for wire sizing in cost-only mode (steady state).
double dgc_steady_density(const Session& s) {
  return 1.0 -
         compress::DgcCompressor::sparsity_at(s.cfg.opt.dgc_config, 1e9);
}

std::unique_ptr<compress::DgcCompressor> make_dgc(Session& s) {
  if (!use_dgc(s) || !s.wl.functional()) return nullptr;
  std::vector<std::int64_t> sizes;
  for (std::size_t i = 0; i < s.wl.num_slots(); ++i) {
    sizes.push_back(s.wl.slot_numel(i));
  }
  compress::DgcConfig cfg = s.cfg.opt.dgc_config;
  cfg.num_workers = s.cfg.num_workers;
  cfg.momentum = s.cfg.sgd.momentum;
  return std::make_unique<compress::DgcCompressor>(cfg, std::move(sizes));
}

/// Builds one slot's gradient packet (dense, DGC-sparse, or QSGD-quantized
/// — the latter travels as a dense tensor carrying the quantization error,
/// with the compressed wire size). `basis_version` is the PS update clock
/// the gradient was computed against (staleness probe; see
/// ps/shard_state.hpp).
Packet grad_packet(Session& s, int rank, std::size_t slot, double epoch,
                   double lr_global, std::int64_t basis_version,
                   compress::DgcCompressor* dgc, common::Rng& rng) {
  Packet pkt;
  pkt.a = rank;
  pkt.b = static_cast<std::int64_t>(slot);
  pkt.c = basis_version;
  pkt.x = lr_global;
  if (use_qsgd(s)) {
    pkt.tag = kTagGrad;
    pkt.wire_bytes = compress::qsgd_wire_bytes(s.wl.slot_wire_bytes(slot),
                                               s.cfg.opt.qsgd_bits);
    if (s.wl.functional()) {
      compress::QsgdConfig qcfg{.bits = s.cfg.opt.qsgd_bits};
      const auto& grad = s.wl.grad_slot(rank, slot);
      compress::QuantizedSlot q = compress::quantize(grad.data(), qcfg, rng);
      tensor::Tensor restored(grad.shape());
      q.dequantize(restored.data());
      pkt.emplace_payload().tensors.push_back(std::move(restored));
    }
    return pkt;
  }
  if (use_dgc(s)) {
    pkt.tag = kTagSparseGrad;
    if (dgc != nullptr) {
      auto sparse =
          dgc->compress(slot, s.wl.grad_slot(rank, slot).data(), epoch);
      pkt.wire_bytes = sparse.wire_bytes();
      auto& pl = pkt.emplace_payload();
      pl.sparse_indices.push_back(std::move(sparse.indices));
      pl.sparse_values.push_back(std::move(sparse.values));
    } else {
      const double bytes = static_cast<double>(s.wl.slot_wire_bytes(slot)) *
                           dgc_steady_density(s) * 2.0;
      pkt.wire_bytes =
          std::max<std::uint64_t>(8, static_cast<std::uint64_t>(bytes));
    }
  } else {
    pkt.tag = kTagGrad;
    pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
    if (s.wl.functional()) {
      pkt.emplace_payload().tensors.push_back(s.wl.grad_slot(rank, slot));
    }
  }
  return pkt;
}

/// Runs one iteration's forward+backward in virtual time (and functionally
/// when the workload is). `on_slot_ready` is invoked per slot in backprop
/// (reverse) order — interleaved with the backward advances when wait-free
/// BP is on, otherwise after the full backward.
double compute_iteration(
    Session& s, runtime::Process& self, int rank, common::Rng& rng,
    metrics::WorkerMetrics& wm,
    const std::function<void(std::size_t)>& on_slot_ready) {
  PhaseTimer timer(self, wm, Phase::compute);
  // The forward-time draw must happen on the simulated thread, before the
  // closure is submitted, so the RNG stream order is independent of the
  // compute_threads setting. fault_stretch applies the rank's persistent
  // straggler factor and any transient slowdown windows.
  const double fwd = s.fault_stretch(self, rank, s.wl.forward_time(rng));
  double loss = 0.0;
  if (s.wl.functional()) {
    // Forward+backward touches only worker-`rank` state (its model replica,
    // batch cursor, gradient slots), so the numerics run on the host pool
    // while other processes are scheduled across the modeled forward
    // interval. advance_compute joins the closure before returning, so the
    // gradients exist before any backward slot below is announced.
    self.advance_compute(fwd,
                         [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
  } else {
    self.advance(fwd);
  }

  const std::size_t n = s.wl.num_slots();
  if (!s.cfg.opt.wait_free_bp || !on_slot_ready) {
    self.advance(s.fault_stretch(self, rank, s.wl.backward_time(rng)));
    if (on_slot_ready) {
      for (std::size_t i = n; i-- > 0;) on_slot_ready(i);
    }
  } else {
    double nominal = 0.0;
    for (std::size_t i = 0; i < n; ++i) nominal += s.wl.backward_slot_time(i);
    const double total =
        s.fault_stretch(self, rank, s.wl.backward_time(rng));
    const double scale = nominal > 0.0 ? total / nominal : 0.0;
    for (std::size_t i = n; i-- > 0;) {
      self.advance(s.wl.backward_slot_time(i) * scale);
      on_slot_ready(i);
    }
  }
  return loss;
}

/// Per-shard PS-side probes, resolved once per shard process.
struct PsProbes {
  metrics::Counter* requests = nullptr;      // ps.requests_total{shard}
  metrics::Counter* bytes_served = nullptr;  // ps.bytes_served_total{shard}
  metrics::Histogram* queue_depth = nullptr;  // ps.queue_depth{shard}
  metrics::Histogram* staleness = nullptr;    // staleness.updates{algo}

  /// `shard` is the endpoint's label: a backup registers as shard "<k>b"
  /// so its request/byte counts stay distinguishable from the primary's.
  static PsProbes make(Session& s, const std::string& shard) {
    const metrics::Labels shard_labels{{"shard", shard}};
    const metrics::Labels algo_labels{{"algo", algo_name(s.cfg.algo)}};
    return PsProbes{
        &s.registry.counter("ps.requests_total", shard_labels),
        &s.registry.counter("ps.bytes_served_total", shard_labels),
        &s.registry.histogram("ps.queue_depth", shard_labels,
                              metrics::Histogram::count_bounds()),
        &s.registry.histogram("staleness.updates", algo_labels,
                              metrics::Histogram::count_bounds())};
  }

  /// Call right after a recv: counts the request and samples how many
  /// messages are still queued behind it (the PS convoy signal).
  void on_request(Session& s, int ep) const {
    requests->inc();
    queue_depth->observe(static_cast<double>(s.network->queue_depth(ep)));
  }
};

/// Uncontended estimate of a full per-slot push + per-slot reply round
/// between worker `rank` and all PS shards.
double ps_roundtrip_estimate(const Session& s, int rank) {
  double t = 0.0;
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  const double density = use_dgc(s) ? dgc_steady_density(s) * 2.0 : 1.0;
  for (std::size_t slot = 0; slot < s.wl.num_slots(); ++slot) {
    const int pep = s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))];
    const auto push_bytes = static_cast<std::uint64_t>(
        static_cast<double>(s.wl.slot_wire_bytes(slot)) * density);
    t += s.uncontended_time(push_bytes, wep, pep);
    t += s.uncontended_time(s.wl.slot_wire_bytes(slot), pep, wep);
  }
  return t;
}

// ---- the transport seam (see docs/faults.md) ------------------------------
//
// Every PS exchange — worker push, shard reply, reply collection and the
// shard's serve loop — goes through PsLink, the only code that reads
// Session::reliable_mode(). Each protocol below is written once against it.
//
// On the plain network the seam is the degenerate case: a push is a
// fire-and-forget Network::send (it counts as acked and never times out),
// receives block with no deadline polls, and the shard loop
// is serve() with no backup and no crash. Round ids (Packet.d), dedup,
// mirroring and failover are then no-ops. On the reliable transport
// (message faults and/or replicate_ps) every exchange rides
// net::ReliableTransport: round ids let shards apply each exchange exactly
// once across retransmission and failover, and with replicate_ps each
// shard has a backup ("ps<k>b") that mirrors the primary's applies and
// serves workers after the primary fail-stops.

using Abandon = std::function<bool(int shard)>;
using Repush = std::function<void(int shard, const std::vector<char>& got)>;

class PsLink {
 public:
  explicit PsLink(Session& s) : s_(&s), rel_(s.reliable.get()) {}

  /// True on the reliable transport, whose sends block until acked. Two
  /// per-config choices follow, stated here once: pushes leave after the
  /// backward pass instead of streaming out of it (wait-free BP is rejected
  /// for the same reason), and BSP's local aggregation, whose
  /// machine-leader gather assumes loss-free local links, is off.
  [[nodiscard]] bool acked() const noexcept { return rel_ != nullptr; }

  // ---- point-to-point ------------------------------------------------------

  /// Point-to-point send. On the reliable transport a retransmit-budget
  /// timeout is retried with the same sequence number, so the receiver
  /// never sees a gap: forever to a peer that cannot die and never exits
  /// (a backup mirror, a co-located worker), but to worker
  /// `to_rank` only until that rank has departed — its fiber has returned,
  /// so it can never ack, and it no longer waits. Without that bound a
  /// shard whose last ack from a finishing worker is lost would retransmit
  /// forever, never serving the other workers meanwhile.
  void send(runtime::Process& self, int src_ep, int dst_ep, Packet pkt,
            int to_rank = -1) const {
    if (rel_ == nullptr) {
      s_->network->send(self, src_ep, dst_ep, std::move(pkt));
      return;
    }
    std::int64_t seq = -1;
    while (!rel_->send(self, src_ep, dst_ep, pkt, &seq)) {
      if (to_rank >= 0 && s_->member_departed(to_rank, self.now())) return;
    }
  }

  Packet recv(runtime::Process& self, int ep, int tag = net::kAnyTag) const {
    return rel_ != nullptr ? rel_->recv(self, ep, tag)
                           : s_->network->recv(self, ep, tag);
  }

  // ---- worker side ----------------------------------------------------------

  /// An asynchronous protocol's worker ran out of iterations. On the
  /// reliable transport it leaves the cluster, so shards stop
  /// retransmitting replies to it (send_to_worker); on the plain network
  /// nothing waits on it and it stays in the membership view.
  void leave(runtime::Process& self, int rank) const {
    if (rel_ != nullptr) s_->mark_finished(rank, self.now());
  }

  /// Worker push to a shard's current route. On the plain network `pkt` is
  /// moved out (nothing is ever re-sent). On the reliable transport it is
  /// kept for a failover re-push, and a timeout fails over to the backup
  /// when the primary is (observably) down; retries to an unchanged
  /// destination reuse the sequence number, a reroute starts a fresh one.
  /// Returns false only when `abandon(shard)` gives up after a timeout.
  bool push(runtime::Process& self, int wep, int shard, Packet& pkt,
            const Abandon& abandon = {}) const {
    Session& s = *s_;
    if (rel_ == nullptr) {
      s.network->send(self, wep, s.ps_ep[static_cast<std::size_t>(shard)],
                      std::move(pkt));
      return true;
    }
    std::int64_t seq = -1;
    int route = s.ps_route(shard);
    while (!rel_->send(self, wep, route, pkt, &seq)) {
      if (abandon && abandon(shard)) return false;
      if (s.ps_primary_down(shard)) {
        s.fail_over(self, shard);
        const int next = s.ps_route(shard);
        if (next != route) {
          route = next;
          seq = -1;
        }
      }
    }
    return true;
  }

  /// Collects one exchange round's kTagParams replies, one per slot,
  /// loading each into the worker's replica in functional mode. `basis`
  /// gets the PS update clock each reply carries (Packet.c), so the next
  /// push is stamped with the version it builds on. With `grant_out`,
  /// replies from shard `grant_shard` carry a DSSP staleness-bound grant in
  /// Packet.x; the last one received wins.
  ///
  /// On the reliable transport replies are matched by (round id, slot):
  /// stale rounds and duplicates — possible after a failover re-push — are
  /// dropped. When a deadline poll times out and a missing slot's primary
  /// is down, the worker fails over and calls `repush` once for that shard
  /// (the backup dedups by round id and replies from current state).
  /// Returns false only when `abandon(shard)` gives up on a missing slot.
  bool await_replies(runtime::Process& self, int rank, int wep,
                     std::int64_t round, std::vector<std::int64_t>& basis,
                     const Repush& repush, const Abandon& abandon = {},
                     int grant_shard = -1, int* grant_out = nullptr) const {
    Session& s = *s_;
    const std::size_t n_slots = s.wl.num_slots();
    const auto deliver = [&](const Packet& pkt) {
      const auto slot = static_cast<std::size_t>(pkt.b);
      basis.at(slot) = pkt.c;
      if (grant_out != nullptr && static_cast<int>(pkt.a) == grant_shard) {
        *grant_out = static_cast<int>(std::llround(pkt.x));
      }
      if (s.wl.functional()) s.wl.set_param_slot(rank, slot, pkt.tensor(0));
    };
    if (rel_ == nullptr) {
      for (std::size_t i = 0; i < n_slots; ++i) {
        deliver(s.network->recv(self, wep, kTagParams));
      }
      return true;
    }
    std::vector<char> got(n_slots, 0);
    std::size_t remaining = n_slots;
    std::vector<char> repushed(static_cast<std::size_t>(s.num_shards()), 0);
    const double poll = rel_->config().max_timeout;
    while (remaining > 0) {
      std::optional<Packet> pkt =
          rel_->recv_deadline(self, wep, kTagParams, self.now() + poll);
      if (!pkt.has_value()) {  // the poll expired
        for (std::size_t slot = 0; slot < n_slots; ++slot) {
          if (got[slot] != 0) continue;
          const int shard = s.plan.shard_of(slot);
          if (abandon && abandon(shard)) return false;
          auto& done = repushed[static_cast<std::size_t>(shard)];
          if (done != 0 || !s.ps_primary_down(shard)) continue;
          s.fail_over(self, shard);
          done = 1;
          repush(shard, got);
        }
        continue;
      }
      if (pkt->d != round) continue;  // stale round
      const auto slot = static_cast<std::size_t>(pkt->b);
      if (got[slot] != 0) continue;  // duplicate reply
      got[slot] = 1;
      --remaining;
      deliver(*pkt);
    }
    return true;
  }

  // ---- shard side -----------------------------------------------------------

  /// Exactly-once bookkeeping of one shard endpoint: the last round id it
  /// applied per (rank, slot), the ranks that asked it directly for the
  /// open BSP round's reply, and how a BSP round's contributions combine.
  /// On the plain network nothing is retransmitted, so it is inert: every
  /// push is fresh, every rank is owed, and contributions accumulate in
  /// arrival order. On the reliable transport each rank's contribution is
  /// staged in its own buffer (idempotent overwrite on a re-pushed
  /// duplicate) and summed in rank order, so a failover run's parameters
  /// match a no-crash run of the same config bit for bit.
  class Ledger {
   public:
    Ledger(bool on, int ranks, std::size_t n_local)
        : on_(on),
          last_(on ? static_cast<std::size_t>(ranks) : 0,
                std::vector<std::int64_t>(n_local, -1)),
          owed_(on ? n_local : 0,
                std::vector<char>(static_cast<std::size_t>(ranks), 0)) {}

    [[nodiscard]] bool fresh(const Packet& pkt, std::size_t local) const {
      return !on_ || pkt.d > last_[static_cast<std::size_t>(pkt.a)][local];
    }
    void record(const Packet& pkt, std::size_t local) {
      if (on_) last_[static_cast<std::size_t>(pkt.a)][local] = pkt.d;
    }
    void owe(std::size_t local, int rank) {
      if (on_) owed_[local][static_cast<std::size_t>(rank)] = 1;
    }
    /// True when `rank` is owed the closing round's reply; clears the debt.
    bool take_owed(std::size_t local, int rank) {
      if (!on_) return true;
      char& owed = owed_[local][static_cast<std::size_t>(rank)];
      const bool was = owed != 0;
      owed = 0;
      return was;
    }

    /// Adds one rank's round contribution (functional mode).
    void gather(ps::ShardState& st, std::size_t local,
                const Packet& pkt) const {
      const bool dense = pkt.tag == kTagGrad;
      const int rank = static_cast<int>(pkt.a);
      if (on_ && dense) {
        st.stage_dense(local, rank, pkt.tensor(0).data());
      } else if (on_) {
        st.stage_sparse(local, rank, pkt.sparse_indices(0),
                        pkt.sparse_values(0));
      } else if (dense) {
        st.accumulate_dense(local, pkt.tensor(0).data());
      } else {
        st.accumulate_sparse(local, pkt.sparse_indices(0),
                             pkt.sparse_values(0));
      }
    }
    /// The round's gradient sum; clears it.
    [[nodiscard]] tensor::Tensor take_sum(ps::ShardState& st,
                                          std::size_t local) const {
      return on_ ? st.take_staged_sum(local) : st.take_accumulated(local);
    }

   private:
    bool on_;
    std::vector<std::vector<std::int64_t>> last_;  // [rank][local]
    std::vector<std::vector<char>> owed_;          // [local][rank]
  };

  /// One serving endpoint of a shard — its primary or, with replicate_ps,
  /// its backup — with the endpoint's probes and exactly-once ledger.
  struct End {
    int shard;
    int ep;  // own endpoint
    int primary_ep;
    int mirror_ep;  // backup a primary mirrors its applies to; -1: none
    bool backup;
    ps::ShardState& st;  // the state this endpoint serves
    PsProbes probes;     // a backup registers as shard "<k>b"
    Ledger ledger;

    /// A backup's copy of an apply the primary performed: it owes the
    /// pushing worker nothing.
    [[nodiscard]] bool mirrored(const Packet& pkt) const noexcept {
      return backup && pkt.src_endpoint == primary_ep;
    }
  };

  /// Spawns every shard's primary (and, with replicate_ps, backup) process,
  /// each running `body(self, end)`; the body sets up its protocol state
  /// and calls serve().
  template <class Body>
  void spawn_shards(Body body) const {
    Session& s = *s_;
    const bool exactly_once = rel_ != nullptr;
    const auto spawn_one = [&](int shard, bool backup) {
      s.engine.spawn(
          "ps" + std::to_string(shard) + (backup ? "b" : ""),
          [&s, body, shard, backup, exactly_once](runtime::Process& self) {
            const auto k = static_cast<std::size_t>(shard);
            ps::ShardState& st = backup ? *s.backup_shards[k] : *s.shards[k];
            End end{shard,
                    backup ? s.ps_backup_ep[k] : s.ps_ep[k],
                    s.ps_ep[k],
                    !backup && s.has_backups() ? s.ps_backup_ep[k] : -1,
                    backup,
                    st,
                    PsProbes::make(s, std::to_string(shard) +
                                          (backup ? "b" : "")),
                    Ledger(exactly_once, s.cfg.num_workers, st.num_local())};
            body(self, end);
          },
          /*daemon=*/true);
    };
    for (int shard = 0; shard < s.num_shards(); ++shard) {
      spawn_one(shard, false);
      if (s.has_backups()) spawn_one(shard, true);
    }
  }

  /// Serves one shard endpoint: `handle(pkt, replies_ok)` per message,
  /// forever for a backup or an uncrashed primary, until the scheduled
  /// fail-stop otherwise. On death the endpoint goes deaf (new data is
  /// never acked again — that silence is what senders detect), but
  /// everything the transport already acked is first drained through
  /// `handle` with replies suppressed: an acked push must still be applied
  /// and mirrored, or acked updates would vanish with the primary.
  template <class Handle>
  void serve(runtime::Process& self, End& end, Handle&& handle) const {
    Session& s = *s_;
    s.network->bind(end.ep, self);
    const auto serve_one = [&](Packet& pkt, bool replies_ok) {
      end.probes.on_request(s, end.ep);
      handle(pkt, replies_ok);
    };
    const faults::PsCrash* pc =
        end.backup ? nullptr : s.fault_plan.ps_crash_of(end.shard);
    while (pc == nullptr) {
      Packet pkt = recv(self, end.ep);
      serve_one(pkt, true);
    }
    while (self.now() < pc->at) {
      std::optional<Packet> pkt =
          rel_->recv_deadline(self, end.ep, net::kAnyTag, pc->at);
      if (!pkt.has_value()) break;
      serve_one(*pkt, true);
    }
    s.mark_ps_down(self, end.shard);
    rel_->set_deaf(end.ep);
    for (Packet& p : rel_->drain_ready(end.ep)) serve_one(p, false);
  }

  /// Forwards an apply to the backup (replicate_ps primaries only).
  void mirror(runtime::Process& self, const End& end,
              const Packet& pkt) const {
    if (end.mirror_ep >= 0) send(self, end.ep, end.mirror_ep, pkt);
  }

  /// Parameter reply of one slot to worker `rank`, echoing the exchange's
  /// round id. When the same (shard, slot) reply fans out to many ranks in
  /// one round, pass a `payload_cache`: the first call snapshots the
  /// parameter tensor into a shared payload and every later call reuses
  /// the handle, so the broadcast allocates the model slot once instead of
  /// once per rank. Safe because only the shard's own process mutates its
  /// parameters, so the snapshot cannot change while the reply loop yields
  /// in send(). `grant` (DSSP only): the staleness bound granted to the
  /// pulling worker, carried in Packet.x — the lr field is unused on
  /// kTagParams.
  void reply(runtime::Process& self, const End& end, std::size_t slot,
             int rank, std::int64_t round,
             net::PayloadHandle* payload_cache = nullptr,
             double grant = 0.0) const {
    const ps::ShardState& st = end.st;
    Packet pkt;
    pkt.tag = kTagParams;
    pkt.a = end.shard;
    pkt.b = static_cast<std::int64_t>(slot);
    pkt.c = st.version(st.local_index(slot));
    pkt.d = round;
    pkt.x = grant;
    pkt.wire_bytes = s_->wl.slot_wire_bytes(slot);
    if (s_->wl.functional()) {
      if (payload_cache != nullptr && *payload_cache != nullptr) {
        pkt.payload = *payload_cache;
      } else {
        pkt.emplace_payload().tensors.push_back(
            st.param(st.local_index(slot)));
        if (payload_cache != nullptr) *payload_cache = pkt.payload;
      }
    }
    end.probes.bytes_served->inc(static_cast<double>(pkt.wire_bytes));
    send(self, end.ep, s_->worker_ep[static_cast<std::size_t>(rank)],
         std::move(pkt), rank);
  }

  /// Serves a kTagPull: every slot of the endpoint's shard to the puller.
  void serve_pull(runtime::Process& self, const End& end, const Packet& pull,
                  double grant = 0.0) const {
    for (std::size_t slot : end.st.slots()) {
      reply(self, end, slot, static_cast<int>(pull.a), pull.d, nullptr,
            grant);
    }
  }

 private:
  Session* s_;
  net::ReliableTransport* rel_;  // null on the plain network
};

/// Asynchronous apply of one pushed gradient slot (functional mode): the
/// packet's global lr on the gradient scaled by 1/N.
void apply_push(ps::ShardState& st, std::size_t local, const Packet& pkt,
                float inv_n) {
  const float lr = static_cast<float>(pkt.x);
  if (pkt.tag == kTagGrad) {
    st.apply_dense(local, pkt.tensor(0).data(), lr, inv_n);
  } else {
    st.apply_sparse(local, pkt.sparse_indices(0), pkt.sparse_values(0), lr,
                    inv_n);
  }
}

/// Incarnation filter, deliberately *instantaneous* (not the lagged view):
/// a push in flight when its sender crashed is stale, but a rebooted
/// sender's new push must never be discarded while its readmission is
/// still pending. Such a push is discarded with no reply (the rank
/// re-syncs with a pull on rejoin).
bool from_dead_incarnation(Session& s, const runtime::Process& self,
                           const Packet& pkt) {
  if (!s.fault_plan.has_crashes() ||
      !s.rank_down(static_cast<int>(pkt.a), self.now())) {
    return false;
  }
  if (s.fprobes.dropped_pushes != nullptr) s.fprobes.dropped_pushes->inc();
  return true;
}

// ---- the worker side of every protocol ------------------------------------

/// A PS worker's per-process state, set up the same way (and in the same
/// order: endpoint binding, RNG stream, metric registrations) by every
/// protocol.
struct PsWorker {
  Session& s;
  const PsLink& link;
  runtime::Process& self;
  int rank;
  int wep;
  metrics::WorkerMetrics& wm;
  common::Rng rng;
  std::unique_ptr<compress::DgcCompressor> dgc;
  CurveRecorder curve;
  SyncProbes sync;
  std::vector<std::int64_t> basis;  // PS clock each slot's params carry
  std::vector<Packet> sent;  // this round's pushes (acked sends only)
  CrashCheckpoint ck;

  PsWorker(Session& session, const PsLink& l, runtime::Process& p, int r)
      : s(session),
        link(l),
        self(p),
        rank(r),
        wep(s.worker_ep[static_cast<std::size_t>(r)]),
        wm(s.wmetrics[static_cast<std::size_t>(r)]),
        rng(s.worker_rng(r)),
        dgc(make_dgc(s)),
        curve(s, r),
        sync(SyncProbes::make(s)),
        basis(s.wl.num_slots(), 0),
        sent(l.acked() ? s.wl.num_slots() : 0),
        ck(CrashCheckpoint::make(s)) {
    s.network->bind(wep, self);
  }

  double compute(const std::function<void(std::size_t)>& on_slot_ready) {
    return compute_iteration(s, self, rank, rng, wm, on_slot_ready);
  }

  /// Pushes slot `slot`'s packet to its shard. When sends are acked, the
  /// packet is kept in `sent` for a failover re-push. False when `abandon`
  /// gave up (see PsLink::push).
  bool push(std::size_t slot, Packet pkt, const Abandon& abandon = {}) {
    Packet& out = sent.empty() ? pkt : (sent[slot] = std::move(pkt));
    return link.push(self, wep, s.plan.shard_of(slot), out, abandon);
  }

  /// Builds and pushes slot `slot`'s gradient packet of exchange round
  /// `round`.
  bool push_grad(std::size_t slot, double epoch, double lr,
                 std::int64_t round, const Abandon& abandon = {}) {
    Packet pkt =
        grad_packet(s, rank, slot, epoch, lr, basis[slot], dgc.get(), rng);
    pkt.d = round;
    return push(slot, std::move(pkt), abandon);
  }

  /// Failover re-push of an exchange round: re-sends the round's
  /// already-built packets to `shard` — no second compress() or quantize
  /// draw. With `got` (ASP), only the slots whose reply is still missing.
  void resend(int shard, const std::vector<char>* got = nullptr) {
    for (std::size_t slot = 0; slot < sent.size(); ++slot) {
      if (s.plan.shard_of(slot) != shard) continue;
      if (got != nullptr && (*got)[slot] != 0) continue;
      link.push(self, wep, shard, sent[slot]);
    }
  }

  /// Takes a due crash (docs/faults.md; plain network only, see
  /// Session::validate_reliability) and recovers against the PS: discard
  /// the dead incarnation's mailbox (stale parameter replies), then either
  /// restore the last local checkpoint or pull fresh parameters from every
  /// shard, so the worker resumes with a coherent replica and a fresh
  /// staleness basis. `rejoin_shard` >= 0 (DSSP): a fire-and-forget
  /// kTagRejoin note tells that shard's staleness policy to restart this
  /// rank's push-rate window — sent ahead of the recovery pull, so the
  /// first post-rejoin grant already sees the fresh window. Returns
  /// whether a crash was taken.
  bool crash_point(int rejoin_shard = -1) {
    if (!s.fault_plan.has_crashes() || !s.crash_pending(rank, self.now())) {
      return false;
    }
    s.take_crash(self, rank);
    s.network->drain(wep);
    if (rejoin_shard >= 0) {
      Packet note;
      note.tag = kTagRejoin;
      note.a = rank;
      note.wire_bytes = net::kControlBytes;
      link.send(self, wep, s.ps_ep[static_cast<std::size_t>(rejoin_shard)],
                std::move(note));
    }
    if (ck.restore(s, self, rank)) return true;
    for (int shard = 0; shard < s.num_shards(); ++shard) {
      Packet pull;
      pull.tag = kTagPull;
      pull.a = rank;
      pull.wire_bytes = net::kControlBytes;
      link.push(self, wep, shard, pull);
    }
    link.await_replies(self, rank, wep, 0, basis, {});
    return true;
  }

  /// Closes iteration `it`'s bookkeeping.
  void end_iteration(std::int64_t it, double loss) {
    wm.count_iteration(s.wl.batch_size());
    curve.maybe_record(self, it + 1, loss);
    ck.maybe_snapshot(s, self, rank);
  }
};

// ======================== BSP ==============================================
//
// A round closes once every pusher contributed; under the `drop` policy,
// once every *alive* pusher did, rescaled by the actual contributor count.
// The close is O(1) per push: a per-slot contribution count, which on the
// reliable transport counts fresh round ids only (a rank's round id never
// runs ahead of the open round, since its next push waits for this
// round's reply).

void run_bsp(Session& s, const PsLink& link, bool local_agg_enabled) {
  const int n_workers = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n_workers);

  // Determine the set of endpoints that push to the PS (machine leaders
  // when local aggregation is on, every worker otherwise).
  std::vector<int> pusher_ranks;
  for (int r = 0; r < n_workers; ++r) {
    if (!local_agg_enabled || s.machine_leader(r) == r) {
      pusher_ranks.push_back(r);
    }
  }
  const auto expected = static_cast<int>(pusher_ranks.size());

  // --- PS shard processes -------------------------------------------------
  link.spawn_shards([&s, link, expected, pusher_ranks, inv_n](
                        runtime::Process& self, PsLink::End& end) {
    ps::ShardState& st = end.st;
    // `drop` policy liveness comes from the membership view when the
    // detector is engaged (Session::member_down); the detector nudges a
    // blocked round closed with a kTagViewChange note on every eviction.
    // Without the detector, detection stays message-driven: a round whose
    // surviving pushes all arrived before the crash instant closes at the
    // crashed rank's next message instead (see docs/faults.md).
    const bool drop_mode =
        s.fault_plan.has_crashes() &&
        s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
    std::vector<int> count(st.num_local(), 0);
    std::vector<std::int64_t> round(st.num_local(), 0);
    std::vector<float> lr_latest(st.num_local(), 0.0f);

    const auto try_apply = [&](std::size_t slot, bool replies_ok) {
      const std::size_t local = st.local_index(slot);
      int needed = expected;
      if (drop_mode) {
        needed = 0;
        for (int r : pusher_ranks) {
          if (!s.member_down(r, self.now()) &&
              !s.member_departed(r, self.now())) {
            ++needed;
          }
        }
        needed = std::max(1, needed);
      }
      if (count[local] < needed) return;
      const float scale =
          drop_mode ? 1.0f / static_cast<float>(count[local]) : inv_n;
      count[local] = 0;
      if (s.wl.functional()) {
        const tensor::Tensor sum = end.ledger.take_sum(st, local);
        st.apply_dense(local, sum.data(), lr_latest[local], scale);
      } else {
        self.advance(s.wl.agg_time(s.wl.slot_wire_bytes(slot)));
      }
      st.bump_version(local);
      const std::int64_t closed = round[local]++;
      net::PayloadHandle reply_payload;  // one snapshot for the fan-out
      for (int r : pusher_ranks) {
        // Fan-out skips use *instantaneous* liveness, not the lagged
        // view: a rebooted worker may push again before its readmission
        // is published, and skipping its reply here would strand it
        // waiting while the next round waits on it.
        if (drop_mode && (s.rank_down(r, self.now()) || s.rank_finished(r))) {
          continue;
        }
        // A death drain clears the debts: the backup will serve them.
        if (!end.ledger.take_owed(local, r) || !replies_ok) continue;
        link.reply(self, end, slot, r, closed, &reply_payload);
      }
    };

    link.serve(self, end, [&](Packet& pkt, bool replies_ok) {
      if (pkt.tag == kTagPull) {
        // Crash-recovery pull: serve current params, then re-check rounds
        // that were waiting on the (now rebooted) rank.
        link.serve_pull(self, end, pkt);
        if (drop_mode) {
          for (std::size_t slot : st.slots()) try_apply(slot, replies_ok);
        }
        return;
      }
      if (pkt.tag == kTagViewChange) {
        // The view lost a member; rounds waiting on it can now close.
        if (drop_mode) {
          for (std::size_t slot : st.slots()) try_apply(slot, replies_ok);
        }
        return;
      }
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "BSP PS: unexpected tag");
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const int rank = static_cast<int>(pkt.a);
      const bool mirrored = end.mirrored(pkt);
      if (!end.ledger.fresh(pkt, local)) {
        // Failover re-push of an already-staged round. If the round closed
        // (possibly at the dead primary, mirrored here), the worker only
        // lost the reply: serve it now; otherwise reply at close.
        if (mirrored) return;
        if (pkt.d >= round[local]) {
          end.ledger.owe(local, rank);
        } else if (replies_ok) {
          link.reply(self, end, slot, rank, pkt.d);
        }
        return;
      }
      // BSP applies round t only after every round-t push arrived, so
      // every gradient meets the exact version it was computed on.
      if (!mirrored) {
        end.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      self.advance(s.wl.agg_time(pkt.wire_bytes));
      if (s.wl.functional()) end.ledger.gather(st, local, pkt);
      end.ledger.record(pkt, local);
      lr_latest[local] = static_cast<float>(pkt.x);
      link.mirror(self, end, pkt);
      if (!mirrored) end.ledger.owe(local, rank);
      ++count[local];
      try_apply(slot, replies_ok);
    });
  });

  // --- worker processes -----------------------------------------------------
  for (int rank = 0; rank < n_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, local_agg_enabled](runtime::Process& self) {
          // Built here, not captured: a small closure fits std::function's
          // inline buffer, which saves an allocation per spawned worker.
          const PsLink link(s);
          PsWorker w(s, link, self, rank);
          const std::vector<int> peers = s.machine_peers(rank);
          const int leader = s.machine_leader(rank);
          const bool is_leader = leader == rank;
          const int leader_ep = s.worker_ep[static_cast<std::size_t>(leader)];
          const std::size_t n_slots = s.wl.num_slots();
          const Repush repush = [&w](int shard, const std::vector<char>&) {
            w.resend(shard);
          };

          for (std::int64_t it = 0; it < s.iterations_per_worker(); ++it) {
            w.crash_point();
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);

            // Non-leaders stream slots to their machine leader; leaders /
            // direct workers hold gradients until the gather completes.
            std::function<void(std::size_t)> on_slot;
            if (local_agg_enabled && !is_leader) {
              on_slot = [&](std::size_t slot) {
                Packet pkt;
                pkt.tag = kTagLocalGrad;
                pkt.a = rank;
                pkt.b = static_cast<std::int64_t>(slot);
                pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                if (s.wl.functional()) {
                  pkt.emplace_payload().tensors.push_back(
                      s.wl.grad_slot(rank, slot));
                }
                link.send(self, w.wep, leader_ep, std::move(pkt));
              };
            }
            const double loss = w.compute(on_slot);

            if (local_agg_enabled && is_leader) {
              // Gather the co-located workers' gradients (local_agg phase:
              // dominated by waiting for the slowest local worker).
              PhaseTimer t(self, w.wm, Phase::local_agg);
              const std::size_t expected_local =
                  (peers.size() - 1) * n_slots;
              for (std::size_t i = 0; i < expected_local; ++i) {
                Packet pkt = link.recv(self, w.wep, kTagLocalGrad);
                self.advance(s.wl.agg_time(pkt.wire_bytes));
                if (s.wl.functional()) {
                  s.wl.accumulate_grad_slot(
                      rank, static_cast<std::size_t>(pkt.b),
                      pkt.tensor(0));
                }
              }
            }

            if (!local_agg_enabled || is_leader) {
              // Push (locally aggregated) gradients and await fresh params.
              const double t0 = self.now();
              for (std::size_t slot = n_slots; slot-- > 0;) {
                w.push_grad(slot, epoch, lr, it);
              }
              link.await_replies(self, rank, w.wep, it, w.basis, repush);
              account_window(self, w.wm, t0, ps_roundtrip_estimate(s, rank),
                             w.sync);

              if (local_agg_enabled && peers.size() > 1) {
                PhaseTimer t(self, w.wm, Phase::local_agg);
                // Per-slot payload snapshots shared across the peer
                // broadcast: the leader's params don't change while this
                // double loop yields in send(), so the first peer's
                // snapshot serves every peer.
                std::vector<net::PayloadHandle> bcast(n_slots);
                for (int peer : peers) {
                  if (peer == rank) continue;
                  for (std::size_t slot = 0; slot < n_slots; ++slot) {
                    Packet pkt;
                    pkt.tag = kTagLocalParams;
                    pkt.a = rank;
                    pkt.b = static_cast<std::int64_t>(slot);
                    pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                    if (s.wl.functional()) {
                      if (bcast[slot] == nullptr) {
                        auto fresh = std::make_shared<net::Payload>();
                        fresh->tensors.push_back(s.wl.param_slot(rank, slot));
                        bcast[slot] = std::move(fresh);
                      }
                      pkt.payload = bcast[slot];
                    }
                    link.send(self, w.wep,
                              s.worker_ep[static_cast<std::size_t>(peer)],
                              std::move(pkt));
                  }
                }
              }
            } else {
              // Non-leader: wait for the leader's local broadcast.
              PhaseTimer t(self, w.wm, Phase::local_agg);
              for (std::size_t i = 0; i < n_slots; ++i) {
                Packet pkt = link.recv(self, w.wep, kTagLocalParams);
                if (s.wl.functional()) {
                  s.wl.set_param_slot(rank, static_cast<std::size_t>(pkt.b),
                                      pkt.tensor(0));
                }
              }
            }
            w.end_iteration(it, loss);
          }
          // Drop-mode membership: a worker that ran out of iterations has
          // left the cluster; remaining rounds close without it.
          s.mark_finished(rank, self.now());
        });
  }
}

// ======================== ASP ==============================================

void run_asp(Session& s, const PsLink& link) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);

  link.spawn_shards([&s, link, inv_n](runtime::Process& self,
                                      PsLink::End& end) {
    ps::ShardState& st = end.st;
    link.serve(self, end, [&](Packet& pkt, bool replies_ok) {
      if (pkt.tag == kTagPull) {
        link.serve_pull(self, end, pkt);
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "ASP PS: unexpected tag");
      if (from_dead_incarnation(s, self, pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const bool mirrored = end.mirrored(pkt);
      // A push that is not fresh is a failover re-push the dead primary
      // already applied (and mirrored): the worker only lost the reply.
      if (end.ledger.fresh(pkt, local)) {
        // Every update applied since this worker's last pull makes its
        // gradient one step staler — the ASP staleness distribution.
        if (!mirrored) {
          end.probes.staleness->observe(
              static_cast<double>(st.version(local) - pkt.c));
        }
        self.advance(s.wl.agg_time(pkt.wire_bytes));
        if (s.wl.functional()) apply_push(st, local, pkt, inv_n);
        st.bump_version(local);
        end.ledger.record(pkt, local);
        link.mirror(self, end, pkt);
      }
      if (!mirrored && replies_ok) {
        link.reply(self, end, slot, static_cast<int>(pkt.a), pkt.d);
      }
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n](runtime::Process& self) {
          const PsLink link(s);
          PsWorker w(s, link, self, rank);
          const int budget = s.cfg.reliability.local_step_budget;
          int local_streak = 0;
          // A shard whose primary just died and that nobody promoted yet
          // may be degraded around: apply this iteration's gradient
          // locally instead of blocking, up to `budget` in a row.
          const Abandon may_degrade = [&](int shard) {
            return s.ps_primary_down(shard) && !s.ps_failed_over(shard) &&
                   local_streak < budget;
          };
          const Repush repush = [&w](int shard, const std::vector<char>& got) {
            w.resend(shard, &got);
          };

          for (std::int64_t it = 0; it < s.iterations_per_worker(); ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            bool degraded = false;
            const auto push = [&](std::size_t slot) {
              if (!degraded) {
                degraded = !w.push_grad(slot, epoch, lr, it, may_degrade);
              }
            };
            std::function<void(std::size_t)> stream;
            if (!link.acked()) stream = push;
            const double loss = w.compute(stream);
            const double t0 = self.now();
            if (!stream) {
              for (std::size_t slot = s.wl.num_slots(); slot-- > 0;) push(slot);
            }
            // At a crash point this iteration's pushes are in flight but
            // the PS discards them (rank is down), so no replies are owed:
            // the recovery pull re-syncs instead.
            if (!w.crash_point()) {
              if (!degraded &&
                  link.await_replies(self, rank, w.wep, it, w.basis, repush,
                                     may_degrade)) {
                local_streak = 0;
                account_window(self, w.wm, t0,
                               ps_roundtrip_estimate(s, rank), w.sync);
              } else {
                // Bounded graceful degradation: local SGD step, no sync.
                // Stale replies of this round are deduped by round id.
                if (s.wl.functional()) {
                  s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                       static_cast<float>(lr) * inv_n);
                }
                ++local_streak;
                if (s.fprobes.local_steps != nullptr) {
                  s.fprobes.local_steps->inc();
                }
              }
            }
            w.end_iteration(it, loss);
          }
          link.leave(self, rank);
        });
  }
}

// ======================== SSP / DSSP =======================================
//
// One dispatch loop serves both protocols (the MasterMode idiom: the PS
// loop is protocol-agnostic and the staleness decision lives in a small
// pluggable policy object). Static SSP (`adaptive` false) holds every
// worker to the configured bound s; DSSP (`adaptive` true) hosts a
// core::StalenessPolicy on the *controller shard* — the shard owning slot
// 0, which therefore sees exactly one slot-0 gradient per completed worker
// iteration — and re-grants each worker's bound in [s_min, s_max] from its
// observed push rate. Grants ride back on the controller's kTagParams
// replies (Packet.x), so adaptation adds zero extra messages. Pushes get
// no reply (on the reliable transport the ack is the delivery guarantee),
// so only the pull rounds collect replies. Under replication each
// endpoint of the controller shard keeps its *own* policy fed by the
// pushes it observes (the backup's by the primary's mirrors), so after a
// failover the backup grants from its own complete rate window instead of
// starting cold.

void run_ssp(Session& s, const PsLink& link, bool adaptive) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);
  const int controller = s.plan.shard_of(0);

  link.spawn_shards([&s, link, inv_n, adaptive, controller](
                        runtime::Process& self, PsLink::End& end) {
    ps::ShardState& st = end.st;
    std::unique_ptr<StalenessPolicy> policy;
    if (adaptive && end.shard == controller) {
      policy = std::make_unique<StalenessPolicy>(
          DsspConfig{s.cfg.dssp_s_min, s.cfg.dssp_s_max,
                     s.cfg.dssp_window_s},
          s.cfg.num_workers);
    }
    link.serve(self, end, [&](Packet& pkt, bool replies_ok) {
      if (pkt.tag == kTagRejoin) {
        // Fire-and-forget reboot note: restart the rank's push-rate
        // window so pre-crash speed does not color its first grants.
        if (policy != nullptr) policy->on_rejoin(static_cast<int>(pkt.a));
        return;
      }
      if (pkt.tag == kTagPull) {
        // Idempotent read; duplicate replies are deduped by the worker.
        if (!replies_ok) return;
        const double grant =
            policy != nullptr
                ? static_cast<double>(
                      policy->grant(static_cast<int>(pkt.a), self.now()))
                : 0.0;
        link.serve_pull(self, end, pkt, grant);
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "SSP PS: unexpected tag");
      if (from_dead_incarnation(s, self, pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      if (!end.ledger.fresh(pkt, local)) return;  // duplicate push
      if (!end.mirrored(pkt)) {
        end.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      if (policy != nullptr && slot == 0) {
        policy->on_push(static_cast<int>(pkt.a), self.now());
      }
      self.advance(s.wl.agg_time(pkt.wire_bytes));
      if (s.wl.functional()) apply_push(st, local, pkt, inv_n);
      st.bump_version(local);
      end.ledger.record(pkt, local);
      link.mirror(self, end, pkt);
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n, adaptive, controller](runtime::Process& self) {
          const PsLink link(s);
          PsWorker w(s, link, self, rank);
          metrics::Histogram& local_staleness = s.registry.histogram(
              "ssp.local_staleness",
              {{"worker", std::to_string(rank)}},
              metrics::Histogram::count_bounds());
          metrics::Histogram* bound_h = nullptr;
          if (adaptive) {
            bound_h = &s.registry.histogram(
                "dssp.bound", {{"worker", std::to_string(rank)}},
                metrics::Histogram::count_bounds());
          }
          int bound = adaptive ? s.cfg.dssp_s_min : s.cfg.ssp_staleness;
          if (bound_h != nullptr) {
            bound_h->observe(static_cast<double>(bound));
          }
          int staleness = 0;

          const auto send_pull = [&](int shard, std::int64_t round) {
            Packet pull;
            pull.tag = kTagPull;
            pull.a = rank;
            pull.d = round;
            pull.wire_bytes = net::kControlBytes;
            link.push(self, w.wep, shard, pull);
          };

          for (std::int64_t it = 0; it < s.iterations_per_worker(); ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const auto push = [&](std::size_t slot) {
              w.push_grad(slot, epoch, lr, it);
            };
            std::function<void(std::size_t)> stream;
            if (!link.acked()) stream = push;
            const double loss = w.compute(stream);
            if (!stream) {
              for (std::size_t slot = s.wl.num_slots(); slot-- > 0;) push(slot);
            }
            // SSP pushes never generate replies (workers pull explicitly),
            // so a crash here only loses the in-flight gradients. The
            // recovery pull counts as the global sync; a DSSP rejoiner
            // also restarts from the conservative s_min grant.
            if (w.crash_point(adaptive ? controller : -1)) {
              staleness = 0;
              if (adaptive) {
                bound = s.cfg.dssp_s_min;
                bound_h->observe(static_cast<double>(bound));
              }
              w.end_iteration(it, loss);
              continue;
            }
            // Local clock distance from the last global sync. With the
            // at-most-s-ahead bound (<=) the observed values run 0..s+1:
            // s+1 flags the iteration that triggers the global sync.
            local_staleness.observe(static_cast<double>(staleness));

            if (staleness <= bound) {
              // At or within the staleness bound: update locally and
              // continue without waiting for the PS.
              ++staleness;
              if (s.wl.functional()) {
                s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                     static_cast<float>(lr) * inv_n);
              }
            } else {
              const double t0 = self.now();
              for (int shard = 0; shard < s.num_shards(); ++shard) {
                send_pull(shard, it);
              }
              int grant = bound;
              link.await_replies(
                  self, rank, w.wep, it, w.basis,
                  [&](int shard, const std::vector<char>&) {
                    send_pull(shard, it);
                  },
                  {}, adaptive ? controller : -1, adaptive ? &grant : nullptr);
              account_window(self, w.wm, t0, ps_roundtrip_estimate(s, rank),
                             w.sync);
              staleness = 0;
              if (adaptive) {
                bound = std::clamp(grant, s.cfg.dssp_s_min, s.cfg.dssp_s_max);
                bound_h->observe(static_cast<double>(bound));
              }
            }
            w.end_iteration(it, loss);
          }
          link.leave(self, rank);
        });
  }
}

// ======================== EASGD ============================================

void run_easgd(Session& s, const PsLink& link) {
  const float alpha =
      s.cfg.easgd_alpha > 0.0
          ? static_cast<float>(s.cfg.easgd_alpha)
          : static_cast<float>(0.9 / static_cast<double>(s.cfg.easgd_tau));

  link.spawn_shards([&s, link, alpha](runtime::Process& self,
                                      PsLink::End& end) {
    ps::ShardState& st = end.st;
    link.serve(self, end, [&](Packet& pkt, bool replies_ok) {
      if (pkt.tag == kTagPull) {
        // Crash-recovery pull: the rejoined worker re-seeds its replica
        // from the center variable.
        link.serve_pull(self, end, pkt);
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagEasgdPush, "EASGD PS: unexpected tag");
      if (from_dead_incarnation(s, self, pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const int rank = static_cast<int>(pkt.a);
      const bool mirrored = end.mirrored(pkt);
      if (!end.ledger.fresh(pkt, local)) {
        // Failover re-push of an exchange the dead primary already
        // performed (and mirrored): the elastic reply died with it, so the
        // worker adopts the current center instead — the documented EASGD
        // failover semantics (docs/faults.md).
        if (!mirrored && replies_ok) {
          link.reply(self, end, slot, rank, pkt.d);
        }
        return;
      }
      // Center updates since the worker's previous exchange of this slot =
      // how stale its view of the center was at push time.
      if (!mirrored) {
        end.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      self.advance(s.wl.agg_time(pkt.wire_bytes));
      Packet reply;
      reply.tag = kTagParams;
      reply.a = end.shard;
      reply.b = pkt.b;
      reply.d = pkt.d;
      reply.wire_bytes = s.wl.slot_wire_bytes(slot);
      if (s.wl.functional()) {
        // The exchange mutates the center, so it runs for mirrors too
        // (that is what keeps the replicas bitwise identical).
        reply.emplace_payload().tensors.push_back(
            st.elastic_exchange(local, pkt.tensor(0), alpha));
      }
      st.bump_version(local);
      reply.c = st.version(local);
      end.ledger.record(pkt, local);
      link.mirror(self, end, pkt);
      if (!mirrored && replies_ok) {
        end.probes.bytes_served->inc(static_cast<double>(reply.wire_bytes));
        link.send(self, end.ep, s.worker_ep[static_cast<std::size_t>(rank)],
                  std::move(reply), rank);
      }
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank](runtime::Process& self) {
          const PsLink link(s);
          PsWorker w(s, link, self, rank);
          metrics::Counter& rounds = s.registry.counter(
              "easgd.rounds_total", {{"worker", std::to_string(rank)}});
          const int tau = std::max(1, s.cfg.easgd_tau);
          const Repush repush = [&w](int shard, const std::vector<char>&) {
            w.resend(shard);
          };

          for (std::int64_t it = 0; it < s.iterations_per_worker(); ++it) {
            w.crash_point();
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss = w.compute(nullptr);
            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                   static_cast<float>(lr));
            }

            if ((it + 1) % tau == 0) {
              const std::int64_t round = (it + 1) / tau;
              const double t0 = self.now();
              for (std::size_t slot = 0; slot < s.wl.num_slots(); ++slot) {
                Packet pkt;
                pkt.tag = kTagEasgdPush;
                pkt.a = rank;
                pkt.b = static_cast<std::int64_t>(slot);
                pkt.c = w.basis[slot];
                pkt.d = round;
                pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                if (s.wl.functional()) {
                  pkt.emplace_payload().tensors.push_back(
                      s.wl.param_slot(rank, slot));
                }
                w.push(slot, std::move(pkt));
              }
              link.await_replies(self, rank, w.wep, round, w.basis, repush);
              account_window(self, w.wm, t0, ps_roundtrip_estimate(s, rank),
                             w.sync);
              rounds.inc();
            }
            w.end_iteration(it, loss);
          }
          link.leave(self, rank);
        });
  }
}

}  // namespace

void launch_bsp(Session& s) {
  const PsLink link(s);
  // Local aggregation is off with DGC, on the reliable transport
  // (PsLink::acked), and under crash plans: a dead machine
  // leader would orphan its whole machine's round, and the leader-gather
  // counts assume a fixed co-located worker set.
  const bool local_agg = s.cfg.opt.local_aggregation && !link.acked() &&
                         !use_dgc(s) &&
                         s.cfg.cluster.workers_per_machine > 1 &&
                         s.cfg.num_workers > 1 &&
                         !s.fault_plan.has_crashes();
  run_bsp(s, link, local_agg);
}

void launch_asp(Session& s) { run_asp(s, PsLink(s)); }
void launch_ssp(Session& s) { run_ssp(s, PsLink(s), /*adaptive=*/false); }
void launch_dssp(Session& s) { run_ssp(s, PsLink(s), /*adaptive=*/true); }
void launch_easgd(Session& s) { run_easgd(s, PsLink(s)); }

}  // namespace dt::core
