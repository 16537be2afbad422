// Cost-only ring AllReduce replayed without a packet or a fiber switch per
// chunk.
//
// On the message path (net::ring_allreduce) every chunk costs a Packet, a
// mailbox insert and erase, about two engine events and a fiber switch or
// two, so a collective over N ranks costs O(N^2) engine events. A cost-only
// collective carries no payload, so its whole effect is the schedule: when
// each chunk occupies which NIC queue, and when each rank leaves the
// collective. RingReplay computes that schedule as a plain loop over the
// ranks' events, keyed by (virtual time, engine seq) like the engine's own
// ready heap, while the ranks' fibers stay parked inside allreduce(). The
// result is the message ring's, bit for bit, by construction:
//
//  - every engine sequence number the message ring draws — the send
//    overhead's advance (none when it is 0), the wait_event_until on the
//    earliest matching in-flight chunk, the wake of a blocked or wakeable
//    receiver, with wake's earlier-only decrease-key rule — is drawn here
//    at the same point, so every later key in the run is unchanged;
//  - a replayed event runs only while its key precedes the engine heap's
//    minimum, so outside events (compute, other processes' sends, the
//    sampler) interleave exactly as they do with messages;
//  - each rank's mailbox keeps (tag, arrival) entries in arrival order,
//    FIFO on ties, and applies the receive rules of Network::recv, so a
//    chunk of another collective (another tag pair) wakes a waiting rank
//    spuriously just as a queued packet would;
//  - every chunk goes through Network::model_transfer and
//    Network::note_delivery: NIC queues, link-degradation windows, traffic
//    counters, the in-flight gauge, profiler edges and trace flows.
//
// A rank whose last chunk arrives is handed back to the engine at the key
// of that event (SimEngine::wake_at), so it continues exactly where the
// message ring's recv would have returned. While replayed events are
// pending, one parked rank — the holder — sits in the engine heap at the
// earliest replayed key and drives the loop when the engine picks it. Per
// collective the engine sees O(N) events and no wakes.
//
// Scope: cost-only collectives (empty buffers) on a wire without message
// faults. The ring endpoints must carry no other traffic while the replay
// is attached, and every rank of the Communicator must call allreduce
// (never ring_allreduce's message path) — core decides eligibility in one
// predicate (algo_decentralized.cpp, ring_replay_eligible).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace dt::net {

class RingReplay {
 public:
  /// Replays collectives over `endpoints` (rank -> endpoint id, the
  /// Communicator's list). Every endpoint's owner must be bound before the
  /// first collective.
  RingReplay(Network& net, std::vector<int> endpoints);

  /// Rank `rank`'s part of a cost-only ring AllReduce of `total_wire_bytes`
  /// on tags [tag_base, tag_base + 2): the same schedule, traffic and
  /// observability as ring_allreduce with an empty buffer. `self` must own
  /// the rank's endpoint.
  void allreduce(runtime::Process& self, int rank,
                 std::uint64_t total_wire_bytes, int tag_base);

 private:
  struct Chunk {
    int tag = 0;
    int chunk = 0;  // chunk index, checked against the ring order
    double arrival = 0.0;
  };

  struct Rank {
    int endpoint = 0;
    int machine = 0;
    const Network::Endpoint* ep = nullptr;  // stable: endpoints_ is a deque
    std::vector<Chunk> mailbox;  // arrival order, FIFO on equal arrivals

    // The collective in progress; `proc` is null outside a collective.
    runtime::Process* proc = nullptr;
    std::uint64_t chunk_base = 0;  // chunk_wire_bytes split of the total:
    std::uint64_t chunk_extra = 0; // the first `extra` chunks carry one more
    int tag_base = 0;
    int step = 0;            // next chunk step, 0 .. 2(n-1)
    bool send_due = false;   // the pending event sends step `step`'s chunk
    bool blocked = false;    // waiting with no matching chunk in flight
    bool wakeable = false;   // a wake may move the pending event earlier
  };

  // A rank's pending event, keyed (time, seq) like the engine's ready heap.
  struct Pending {
    double time = 0.0;
    std::uint64_t seq = 0;
    int rank = 0;
  };

  // Parks `self` (rank `me`) until its collective ends, driving the replay
  // whenever the engine picks it as the holder.
  void park(runtime::Process& self, Rank& me);

  // Runs replayed events while the earliest one precedes every engine
  // event. Returns true when `self`'s own collective ended (its exit key is
  // then exit_time_/exit_seq_).
  bool drive(runtime::Process& self);

  // Runs rank `r` at virtual time `t` until it waits again or its
  // collective ends (returns true).
  bool run(Rank& r, double t);

  // Sends step r.step's chunk at time `t` to the right neighbour.
  void send(Rank& r, double t);

  // Makes `r`'s next event pending at `time` with a fresh engine seq. The
  // rank being run still holds the heap's top slot, which is re-keyed.
  void queue(Rank& r, double time, bool wakeable);

  // Network::send's wake of the receiver, replayed.
  void wake(Rank& target, const Rank& sender, double arrival);

  [[nodiscard]] int rank_of(const Rank& r) const noexcept {
    return static_cast<int>(&r - ranks_.data());
  }
  // x mod n for 0 <= x < 3n, without a division.
  [[nodiscard]] int wrap(int x) const noexcept {
    while (x >= n_) x -= n_;
    return x;
  }
  static bool before(const Pending& a, const Pending& b) noexcept;
  void place(std::size_t i, const Pending& p) noexcept;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_top();

  Network& net_;
  runtime::SimEngine& engine_;
  int n_ = 0;
  double send_overhead_ = 0.0;
  std::vector<Rank> ranks_;
  std::vector<Pending> heap_;  // min-heap by (time, seq)
  std::vector<int> slot_;      // rank -> index in heap_, -1 if not pending

  runtime::Process* holder_ = nullptr;  // queued in the engine heap
  double holder_time_ = 0.0;
  std::uint64_t holder_seq_ = 0;
  double exit_time_ = 0.0;  // drive()'s result for the driving rank
  std::uint64_t exit_seq_ = 0;
};

}  // namespace dt::net
