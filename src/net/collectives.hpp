// Collective operations over a set of endpoints (the decentralized
// substrate). AllReduce uses the two-step scheme the paper describes for
// AR-SGD: a ring Reduce-Scatter followed by a ring All-Gather, each moving
// (N-1)/N of the buffer per rank. Works in functional mode (real float
// buffers are summed) and in cost-only mode (empty buffer, only wire bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/network.hpp"

namespace dt::net {

class RingReplay;

/// A static group of endpoints participating in collectives. Every rank
/// must execute the same collective calls in the same order.
struct Communicator {
  Network* net = nullptr;
  std::vector<int> endpoints;  // rank -> endpoint id
  int my_rank = 0;
  /// When set, ring_allreduce replays cost-only collectives instead of
  /// sending chunk packets (net/ring_replay.hpp). Every rank's
  /// Communicator must then point at the same replay over `endpoints`.
  RingReplay* replay = nullptr;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(endpoints.size());
  }
  [[nodiscard]] int my_endpoint() const {
    return endpoints[static_cast<std::size_t>(my_rank)];
  }
};

/// One attempt of an elastic collective round under membership view
/// `epoch` (ring repair). Receives poll in `poll_s` slices and give up once
/// `abort` holds (a new view was published); every packet carries `epoch`
/// in Packet.c so stale traffic aliasing the epoch's tag pair is discarded.
struct EpochRound {
  std::int64_t epoch = 0;
  double poll_s = 0.0;
  std::function<bool()> abort;
};

/// Receives the next packet on `tag` at `endpoint`. Without `round` this
/// is a blocking Network::recv. With it, returns nullopt once
/// `round->abort()` holds and skips packets of other epochs.
std::optional<Packet> recv_in_round(runtime::Process& self, Network& net,
                                    int endpoint, int tag,
                                    const EpochRound* round);

/// In-place sum-AllReduce of `data` across all ranks of `comm`.
/// `total_wire_bytes` is the modeled size of the full buffer (what a rank
/// would send if it pushed everything at once); each ring step transfers
/// total_wire_bytes / N. `data` may be empty (cost-only mode).
/// `tag_base` must not collide with other traffic on these endpoints; the
/// collective uses tags [tag_base, tag_base + 2). With `comm.replay` set,
/// `data` must be empty and the collective is replayed without packets —
/// same schedule, traffic and observability, bit for bit.
///
/// With `round` (elastic membership), every member of view `round->epoch`
/// calls this with a Communicator over the view's live set (ranks
/// renumbered 0..k-1 in view order); `tag_base` is then a tag region and
/// the collective uses the epoch's pair, epoch_tag_base(tag_base, epoch).
/// Returns false when the round aborted: `data` then holds partial sums,
/// and callers retry from a pristine copy of their contribution under the
/// new view. Returns true when the collective completed.
bool ring_allreduce(runtime::Process& self, const Communicator& comm,
                    std::span<float> data, std::uint64_t total_wire_bytes,
                    int tag_base, const EpochRound* round = nullptr);

/// Rendezvous of all ranks (centralized gather-release on rank 0).
void barrier(runtime::Process& self, const Communicator& comm, int tag_base);

/// Number of distinct membership-view epochs an elastic tag region can keep
/// apart by tag alone. Elastic collectives use tags
///   tag_region + 2*(epoch % kEpochTagSpan) + phase
/// and stamp the *full* epoch into Packet.c, so stale traffic is discarded
/// by tag when the epochs differ modulo the span and by the c-guard when
/// they alias (see flush_stale_epochs).
inline constexpr int kEpochTagSpan = 16;

/// Tag pair base for `epoch` inside `tag_region`.
[[nodiscard]] inline int epoch_tag_base(int tag_region,
                                        std::int64_t epoch) noexcept {
  return tag_region + 2 * static_cast<int>(epoch % kEpochTagSpan);
}

/// Drains (without blocking) every already-delivered packet parked on the
/// elastic tags of `tag_region` EXCEPT the current epoch's pair — the
/// abandoned chunks of aborted rounds. Stale packets that alias the current
/// pair modulo kEpochTagSpan are left for the receive loop's c-guard, and
/// packets still in flight are caught by the next flush (or discarded by
/// the guard). Returns the number of packets dropped.
int flush_stale_epochs(runtime::Process& self, Network& net, int endpoint,
                       int tag_region, std::int64_t epoch);

/// Small control-message size used by barriers/acks.
inline constexpr std::uint64_t kControlBytes = 64;

}  // namespace dt::net
