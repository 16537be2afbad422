#include "net/reliable.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace dt::net {

ReliableTransport::ReliableTransport(Network& net, ReliableConfig cfg)
    : net_(net), cfg_(cfg) {
  common::check(cfg_.timeout > 0.0, "reliable: timeout must be positive");
  common::check(cfg_.backoff >= 1.0, "reliable: backoff must be >= 1");
  common::check(cfg_.max_timeout >= cfg_.timeout,
                "reliable: max_timeout must be >= timeout");
  common::check(cfg_.max_retransmits >= 0,
                "reliable: max_retransmits must be >= 0");
}

void ReliableTransport::set_metrics(metrics::MetricRegistry* registry) {
  if (registry == nullptr) return;
  registry_ = registry;
  ctr_retransmits_ = &registry->counter("net.retransmits_total");
  ctr_dup_ = &registry->counter("net.dup_delivered_total");
}

bool ReliableTransport::send(runtime::Process& self, int src_ep, int dst_ep,
                             Packet pkt, std::int64_t* seq_io) {
  EndpointState& st = state(src_ep);
  std::int64_t seq;
  if (seq_io != nullptr && *seq_io >= 0) {
    seq = *seq_io;  // retry of an abandoned send: keep the receiver gapless
  } else {
    seq = st.next_seq[dst_ep]++;
    if (seq_io != nullptr) *seq_io = seq;
  }
  pkt.rel_seq = seq;

  double wait = cfg_.timeout;
  int retransmits = 0;
  for (;;) {
    net_.send(self, src_ep, dst_ep, pkt);  // copy kept for retransmission
    const double attempt_at = self.now();  // post send-overhead
    if (await_ack(self, src_ep, dst_ep, seq, attempt_at + wait)) {
      if (registry_ != nullptr) {
        const auto i = static_cast<std::size_t>(src_ep);
        if (i >= rtt_gauges_.size()) rtt_gauges_.resize(i + 1, nullptr);
        metrics::Gauge*& g = rtt_gauges_[i];
        if (g == nullptr) {
          g = &registry_->gauge("net.ack_rtt_s",
                                {{"endpoint", net_.endpoint_name(src_ep)}});
        }
        g->set(self.now() - attempt_at);
      }
      return true;
    }
    if (retransmits >= cfg_.max_retransmits) return false;
    ++retransmits;
    if (ctr_retransmits_ != nullptr) ctr_retransmits_->inc();
    wait = std::min(wait * cfg_.backoff, cfg_.max_timeout);
  }
}

bool ReliableTransport::await_ack(runtime::Process& self, int src_ep,
                                  int dst_ep, std::int64_t seq,
                                  double deadline) {
  for (;;) {
    std::optional<Packet> raw = net_.recv_until(self, src_ep, kAnyTag,
                                                deadline);
    if (!raw.has_value()) return false;
    if (raw->tag == kTagAck) {
      if (raw->src_endpoint == dst_ep && raw->a == seq) return true;
      continue;  // stale ack of an already-completed send — drop
    }
    handle_raw(self, src_ep, std::move(*raw));
  }
}

void ReliableTransport::handle_raw(runtime::Process& self, int ep,
                                   Packet pkt) {
  EndpointState& st = state(ep);
  if (pkt.tag == kTagAck) return;  // stale ack outside a send — drop
  if (st.deaf) return;             // fail-stopped owner: drop, never ack

  if (pkt.rel_seq < 0) {
    // Raw (non-transport) delivery on a transport endpoint: pass through.
    st.ready.push_back(std::move(pkt));
    return;
  }

  // Ack every transport delivery, duplicates included: the sender's copy
  // of our previous ack may have been lost.
  const int peer_ep = pkt.src_endpoint;
  Packet ack;
  ack.tag = kTagAck;
  ack.a = pkt.rel_seq;
  ack.wire_bytes = kAckBytes;
  net_.send(self, ep, peer_ep, std::move(ack));

  PeerState& peer = st.peers[peer_ep];
  if (pkt.rel_seq < peer.next_expected ||
      peer.parked.find(pkt.rel_seq) != peer.parked.end()) {
    if (ctr_dup_ != nullptr) ctr_dup_->inc();
    return;  // exactly-once: duplicate delivery dropped
  }
  peer.parked.emplace(pkt.rel_seq, std::move(pkt));
  // Release the in-order prefix.
  for (auto it = peer.parked.begin();
       it != peer.parked.end() && it->first == peer.next_expected;
       it = peer.parked.erase(it), ++peer.next_expected) {
    st.ready.push_back(std::move(it->second));
  }
}

std::optional<Packet> ReliableTransport::pop_ready(int ep, int tag) {
  EndpointState& st = state(ep);
  for (auto it = st.ready.begin(); it != st.ready.end(); ++it) {
    if (tag == kAnyTag || it->tag == tag) {
      Packet out = std::move(*it);
      st.ready.erase(it);
      return out;
    }
  }
  return std::nullopt;
}

Packet ReliableTransport::recv(runtime::Process& self, int ep, int tag) {
  for (;;) {
    if (auto pkt = pop_ready(ep, tag)) return std::move(*pkt);
    handle_raw(self, ep, net_.recv(self, ep, kAnyTag));
  }
}

std::optional<Packet> ReliableTransport::recv_deadline(runtime::Process& self,
                                                       int ep, int tag,
                                                       double deadline) {
  for (;;) {
    if (auto pkt = pop_ready(ep, tag)) return pkt;
    std::optional<Packet> raw =
        net_.recv_until(self, ep, kAnyTag, deadline);
    if (!raw.has_value()) return std::nullopt;
    handle_raw(self, ep, std::move(*raw));
  }
}

void ReliableTransport::set_deaf(int ep) { state(ep).deaf = true; }

std::vector<Packet> ReliableTransport::drain_ready(int ep) {
  EndpointState& st = state(ep);
  std::vector<Packet> out;
  out.reserve(st.ready.size());
  for (Packet& p : st.ready) out.push_back(std::move(p));
  st.ready.clear();
  return out;
}

}  // namespace dt::net
