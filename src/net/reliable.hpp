// Reliable, exactly-once transport over the lossy simulated network.
//
// net::Network::send with message faults enabled is an unreliable datagram
// service: messages may be dropped, duplicated, or reordered (see
// docs/network-model.md, "Reliability model"). ReliableTransport layers a
// classic ARQ protocol on top:
//
//  * every data packet carries a per-(source, destination) sequence number
//    (Packet::rel_seq) and is acknowledged by the receiver with a small
//    control message (kTagAck, kAckBytes on the wire);
//  * send() blocks (in virtual time) until the matching ack arrives,
//    retransmitting on timeout with exponential backoff — the k-th wait is
//    min(timeout * backoff^k, max_timeout) — up to `max_retransmits`
//    retransmissions, after which it returns false instead of stalling
//    forever on a dead peer;
//  * the receive side delivers each message exactly once and in per-source
//    order: duplicates (injected or retransmitted) are re-acked, counted in
//    net.dup_delivered_total, and dropped; out-of-order arrivals are held
//    until the gap fills.
//
// Deadlock freedom: a sender blocked waiting for an ack keeps servicing its
// own endpoint — incoming data packets are acked and buffered for a later
// recv() — so two peers sending to each other always make progress. Acks
// themselves travel unreliably (a lost ack is repaired by the sender's
// retransmission, which the receiver dedups and re-acks).
//
// All timing is virtual, so lossy runs inherit the simulator's determinism
// contract: same (config, seed) → byte-identical results at any
// compute_threads setting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "runtime/sim.hpp"

namespace dt::net {

/// Ack control tag — far above every protocol tag (core::Tag grows upward
/// from kTagAllreduce = 200 by small bucket offsets).
inline constexpr int kTagAck = 1 << 30;

/// Wire size of an ack control message.
inline constexpr std::uint64_t kAckBytes = 64;

/// Retransmission policy (the `[reliability]` INI keys; virtual seconds).
struct ReliableConfig {
  double timeout = 0.05;     // initial ack wait
  double backoff = 2.0;      // wait multiplier per retransmission
  double max_timeout = 1.0;  // backoff cap
  int max_retransmits = 10;  // budget per send() before it returns false
};

class ReliableTransport {
 public:
  ReliableTransport(Network& net, ReliableConfig cfg);

  /// Registers the transport's instruments. Call only for runs that route
  /// traffic through the transport (fault-free metric dumps must stay
  /// byte-identical): net.retransmits_total, net.dup_delivered_total, and
  /// a per-sender ack-RTT gauge net.ack_rtt_s{endpoint=...} resolved
  /// lazily at the first completed send.
  void set_metrics(metrics::MetricRegistry* registry);

  /// Exactly-once send: blocks until `dst_ep` acknowledges, retransmitting
  /// per the ReliableConfig schedule. Returns false when the budget is
  /// exhausted — the signal the PS-failover logic turns into a retry or a
  /// route change instead of a hang. While waiting, incoming data on
  /// `src_ep` is acked and buffered for a later recv (never lost, never a
  /// deadlock).
  ///
  /// `seq_io`: callers that retry a timed-out send to the SAME destination
  /// must reuse its sequence number, or an in-flight copy of the abandoned
  /// attempt could park the receiver on a gap forever. Pass a holder
  /// initialized to -1: the first call assigns the seq, a retry reuses it.
  /// Reset it to -1 when switching destinations (failover).
  [[nodiscard]] bool send(runtime::Process& self, int src_ep, int dst_ep,
                          Packet pkt, std::int64_t* seq_io = nullptr);

  /// Blocking exactly-once, per-source-in-order receive of the earliest
  /// buffered (or next arriving) message with a matching tag.
  Packet recv(runtime::Process& self, int ep, int tag = kAnyTag);

  /// recv with a virtual-time deadline; empty at `deadline` if no matching
  /// message was delivered.
  std::optional<Packet> recv_deadline(runtime::Process& self, int ep,
                                      int tag, double deadline);

  /// Fail-stop death of `ep`'s owner: from now on, arriving data packets
  /// are silently dropped (never acked — senders will time out), while
  /// acks for `ep`'s own in-progress sends are still consumed so a dying
  /// primary can finish mirroring what it already acknowledged.
  void set_deaf(int ep);

  /// Pops every acked-but-undelivered message buffered at `ep`, in
  /// delivery order — the death drain: whatever the transport acked must
  /// be processed (applied and mirrored) before the owner dies, or acked
  /// updates would be lost.
  std::vector<Packet> drain_ready(int ep);

  [[nodiscard]] const ReliableConfig& config() const noexcept { return cfg_; }

 private:
  struct PeerState {
    std::int64_t next_expected = 0;         // next in-order seq to deliver
    std::map<std::int64_t, Packet> parked;  // out-of-order, keyed by seq
  };
  struct EndpointState {
    bool deaf = false;
    std::deque<Packet> ready;                 // in-order, deduped, unread
    std::map<int, PeerState> peers;           // by remote endpoint
    std::map<int, std::int64_t> next_seq;     // by destination endpoint
  };

  /// Grows eps_ on first use of an endpoint id. A deque keeps references
  /// valid as it grows, so a state held across a blocking wait survives
  /// another endpoint's first use.
  EndpointState& state(int ep) {
    const auto i = static_cast<std::size_t>(ep);
    if (i >= eps_.size()) eps_.resize(i + 1);
    return eps_[i];
  }

  /// Waits until `deadline` for dst's ack of `seq`, servicing (acking and
  /// buffering) any data packets that arrive meanwhile. False on timeout.
  bool await_ack(runtime::Process& self, int src_ep, int dst_ep,
                 std::int64_t seq, double deadline);

  /// Classifies one raw delivery at `ep`: stale acks are dropped, data is
  /// acked + deduped + parked/enqueued in order (unless `ep` is deaf).
  void handle_raw(runtime::Process& self, int ep, Packet pkt);

  std::optional<Packet> pop_ready(int ep, int tag);

  Network& net_;
  ReliableConfig cfg_;
  std::deque<EndpointState> eps_;  // by endpoint id (dense, see Network)

  metrics::MetricRegistry* registry_ = nullptr;
  metrics::Counter* ctr_retransmits_ = nullptr;
  metrics::Counter* ctr_dup_ = nullptr;
  std::vector<metrics::Gauge*> rtt_gauges_;  // by sender endpoint id
};

}  // namespace dt::net
