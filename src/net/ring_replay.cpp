#include "net/ring_replay.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dt::net {

RingReplay::RingReplay(Network& net, std::vector<int> endpoints)
    : net_(net),
      engine_(net.engine_),
      n_(static_cast<int>(endpoints.size())),
      send_overhead_(net.spec().send_overhead) {
  common::check(n_ > 0, "RingReplay: empty ring");
  ranks_.resize(endpoints.size());
  for (std::size_t r = 0; r < endpoints.size(); ++r) {
    ranks_[r].endpoint = endpoints[r];
    ranks_[r].ep = &net.endpoint(endpoints[r]);
    ranks_[r].machine = ranks_[r].ep->machine;
  }
  heap_.reserve(endpoints.size());
  slot_.assign(endpoints.size(), -1);
}

void RingReplay::allreduce(runtime::Process& self, int rank,
                           std::uint64_t total_wire_bytes, int tag_base) {
  common::check(rank >= 0 && rank < n_, "RingReplay: bad rank");
  if (n_ == 1) return;
  Rank& me = ranks_[static_cast<std::size_t>(rank)];
  common::check(me.ep->owner == &self,
                "RingReplay: caller does not own the rank's endpoint");
  common::check(me.proc == nullptr, "RingReplay: rank is already replaying");
  common::check(me.ep->queue.empty(),
                "RingReplay: a ring endpoint received non-ring traffic");
  me.proc = &self;
  me.chunk_base = total_wire_bytes / static_cast<std::uint64_t>(n_);
  me.chunk_extra = total_wire_bytes % static_cast<std::uint64_t>(n_);
  me.tag_base = tag_base;
  me.step = 0;
  me.send_due = true;
  // The first send belongs to the caller's current event, exactly where
  // ring_allreduce's first Network::send runs.
  if (send_overhead_ > 0.0) {
    queue(me, self.now() + send_overhead_, false);
  } else if (run(me, self.now())) {
    me.proc = nullptr;
    return;
  }
  park(self, me);
}

void RingReplay::park(runtime::Process& self, Rank& me) {
  for (;;) {
    if (heap_.empty()) {
      self.wait_event();
    } else {
      const Pending top = heap_.front();
      if (holder_ == nullptr) {
        holder_ = &self;
        holder_time_ = top.time;
        holder_seq_ = top.seq;
        self.resume_at(top.time, top.seq);
      } else {
        // Another parked rank holds the replay. Only an entering rank gets
        // here, and it can only add earlier events: move the holder to the
        // earliest key.
        if (holder_time_ != top.time || holder_seq_ != top.seq) {
          holder_time_ = top.time;
          holder_seq_ = top.seq;
          engine_.wake_at(*holder_, top.time, top.seq);
        }
        self.wait_event();
      }
    }
    if (me.proc == nullptr) return;  // resumed at its exit key
    common::check(holder_ == &self,
                  "RingReplay: a parked rank was woken outside the replay");
    holder_ = nullptr;
    if (drive(self)) {
      if (!heap_.empty()) {
        const Pending top = heap_.front();
        holder_ = ranks_[static_cast<std::size_t>(top.rank)].proc;
        holder_time_ = top.time;
        holder_seq_ = top.seq;
        engine_.wake_at(*holder_, top.time, top.seq);
      }
      // The earliest event of all: continues without a switch.
      self.resume_at(exit_time_, exit_seq_);
      return;
    }
  }
}

bool RingReplay::drive(runtime::Process& self) {
  while (!heap_.empty()) {
    const Pending top = heap_.front();
    if (engine_.ready_before(top.time, top.seq)) return false;
    Rank& r = ranks_[static_cast<std::size_t>(top.rank)];
    // `r` keeps the top slot while it runs: every key it draws for others
    // is later than its own. queue() re-keys the slot; otherwise pop it.
    const bool done = run(r, top.time);
    if (heap_.front().seq == top.seq) pop_top();
    if (!done) continue;
    runtime::Process* const proc = r.proc;
    r.proc = nullptr;
    if (proc == &self) {
      exit_time_ = top.time;
      exit_seq_ = top.seq;
      return true;
    }
    // Resumes at this key before any later replayed event, which ends the
    // loop at the next check.
    engine_.wake_at(*proc, top.time, top.seq);
  }
  return false;
}

bool RingReplay::run(Rank& r, double t) {
  const int n = n_;
  const int me = rank_of(r);
  if (r.send_due) {
    r.send_due = false;
    send(r, t);
  }
  for (;;) {
    // Network::recv: take an arrived chunk, else sleep until the earliest
    // matching one lands (staying wakeable), else block.
    const bool scatter = r.step < n - 1;
    const int tag = r.tag_base + (scatter ? 0 : 1);
    const int s = scatter ? r.step : r.step - (n - 1);
    const int recv_chunk = wrap(me - s + n - (scatter ? 1 : 0));
    const auto it = std::find_if(r.mailbox.begin(), r.mailbox.end(),
                                 [tag](const Chunk& c) { return c.tag == tag; });
    if (it == r.mailbox.end()) {
      r.blocked = true;
      return false;
    }
    // The mailbox is in arrival order, so the first chunk of the tag is
    // both what try_recv would take and the earliest one in flight.
    if (it->arrival > t) {
      queue(r, it->arrival, true);
      return false;
    }
    common::check(it->chunk == recv_chunk,
                  scatter ? "ring_allreduce: chunk order violated"
                          : "ring_allreduce: gather order violated");
    r.mailbox.erase(it);
    if (net_.in_flight_ != nullptr) net_.in_flight_->add(-1.0);
    if (++r.step == 2 * (n - 1)) return true;
    if (send_overhead_ > 0.0) {
      r.send_due = true;
      queue(r, t + send_overhead_, false);
      return false;
    }
    send(r, t);
  }
}

void RingReplay::send(Rank& r, double t) {
  const int n = n_;
  const int me = rank_of(r);
  const bool scatter = r.step < n - 1;
  const int s = scatter ? r.step : r.step - (n - 1);
  const int chunk = wrap(me - s + n + (scatter ? 0 : 1));
  // common::chunk_wire_bytes without its division per chunk.
  const std::uint64_t bytes = std::max<std::uint64_t>(
      1, r.chunk_base +
             (static_cast<std::uint64_t>(chunk) < r.chunk_extra ? 1 : 0));
  Rank& right = ranks_[static_cast<std::size_t>(me + 1 == n ? 0 : me + 1)];
  const double arrival =
      net_.model_transfer(r.machine, right.machine, bytes, t);
  net_.note_delivery(r.endpoint, right.endpoint, bytes, t, arrival);

  const Chunk c{r.tag_base + (scatter ? 0 : 1), chunk, arrival};
  std::vector<Chunk>& box = right.mailbox;
  if (box.empty() || box.back().arrival <= arrival) {
    box.push_back(c);
  } else {
    box.insert(std::upper_bound(box.begin(), box.end(), arrival,
                                [](double a, const Chunk& q) {
                                  return a < q.arrival;
                                }),
               c);
  }
  wake(right, r, arrival);
}

void RingReplay::queue(Rank& r, double time, bool wakeable) {
  r.wakeable = wakeable;
  const Pending p{time, engine_.draw_seq(), rank_of(r)};
  const int at = slot_[static_cast<std::size_t>(p.rank)];
  if (at >= 0) {
    // The running rank, still in the top slot: its new key is later.
    place(static_cast<std::size_t>(at), p);
    sift_down(static_cast<std::size_t>(at));
  } else {
    heap_.push_back(p);
    sift_up(heap_.size() - 1);
  }
}

void RingReplay::wake(Rank& target, const Rank& sender, double arrival) {
  runtime::Process* const owner = target.ep->owner;
  if (owner == nullptr || owner == sender.proc) return;
  if (target.proc == nullptr) {
    // Outside a collective the rank lives on the engine: a real wake, made
    // only where SimEngine::wake would change something.
    if (owner->waiting()) engine_.wake(*owner, arrival);
    return;
  }
  // SimEngine::wake's rules on the parked rank. arrival >= now, so wake's
  // clamp to the current time never applies.
  if (target.blocked) {
    target.blocked = false;
    queue(target, arrival, true);
    return;
  }
  const int at = slot_[static_cast<std::size_t>(rank_of(target))];
  if (at >= 0 && target.wakeable &&
      arrival < heap_[static_cast<std::size_t>(at)].time) {
    place(static_cast<std::size_t>(at),
          Pending{arrival, engine_.draw_seq(), rank_of(target)});
    sift_up(static_cast<std::size_t>(at));
  }
}

// ---- pending-event heap: 4-ary, keyed by (time, seq) ----------------------
//
// Four children per node halve the depth of a binary heap; a replayed event
// re-keys the top and sifts it down, so depth is what each event pays.

bool RingReplay::before(const Pending& a, const Pending& b) noexcept {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

void RingReplay::place(std::size_t i, const Pending& p) noexcept {
  heap_[i] = p;
  slot_[static_cast<std::size_t>(p.rank)] = static_cast<int>(i);
}

void RingReplay::sift_up(std::size_t i) {
  const Pending p = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(p, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, p);
}

void RingReplay::sift_down(std::size_t i) {
  const Pending p = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t child = first;
    for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (before(heap_[c], heap_[child])) child = c;
    }
    if (!before(heap_[child], p)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, p);
}

void RingReplay::pop_top() {
  slot_[static_cast<std::size_t>(heap_.front().rank)] = -1;
  const Pending last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
}

}  // namespace dt::net
