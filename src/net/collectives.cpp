#include "net/collectives.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/partition.hpp"
#include "net/ring_replay.hpp"

namespace dt::net {

// The chunk split lives in common/partition.hpp so FSDP and the sub-slot
// PS sharding plan carve ranges bit-identically to the ring collectives.
using common::chunk_range;
using common::chunk_wire_bytes;
using ChunkRange = common::ChunkRange;

void ring_allreduce(runtime::Process& self, const Communicator& comm,
                    std::span<float> data, std::uint64_t total_wire_bytes,
                    int tag_base) {
  common::check(comm.net != nullptr && comm.size() > 0,
                "ring_allreduce: bad communicator");
  if (comm.replay != nullptr) {
    common::check(data.empty(), "ring_allreduce: a replay is cost-only");
    comm.replay->allreduce(self, comm.my_rank, total_wire_bytes, tag_base);
    return;
  }
  const int n = comm.size();
  if (n == 1) return;
  Network& net = *comm.net;
  const int me = comm.my_rank;
  const int right = (me + 1) % n;

  const int rs_tag = tag_base;      // reduce-scatter phase
  const int ag_tag = tag_base + 1;  // all-gather phase

  // Reduce-Scatter: after step s, rank r holds the partial sum of chunk
  // (r - s - 1 mod n) over s+2 ranks; after n-1 steps rank r owns the fully
  // reduced chunk (r + 1 mod n).
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (me - step + n) % n;
    const int recv_chunk = (me - step - 1 + n) % n;

    Packet out;
    out.tag = rs_tag;
    out.wire_bytes = chunk_wire_bytes(total_wire_bytes, n, send_chunk);
    out.a = send_chunk;
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, send_chunk);
      out.emplace_payload().sparse_values.emplace_back(data.begin() + r.begin,
                                                       data.begin() + r.end);
    }
    net.send(self, comm.my_endpoint(),
             comm.endpoints[static_cast<std::size_t>(right)], std::move(out));

    Packet in = net.recv(self, comm.my_endpoint(), rs_tag);
    common::check(in.a == recv_chunk, "ring_allreduce: chunk order violated");
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, recv_chunk);
      const auto& vals = in.sparse_values(0);
      common::check(vals.size() == r.size(), "ring_allreduce: chunk size");
      for (std::size_t i = 0; i < vals.size(); ++i) {
        data[r.begin + i] += vals[i];
      }
    }
  }

  // All-Gather: circulate the reduced chunks.
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (me + 1 - step + n) % n;
    const int recv_chunk = (me - step + n) % n;

    Packet out;
    out.tag = ag_tag;
    out.wire_bytes = chunk_wire_bytes(total_wire_bytes, n, send_chunk);
    out.a = send_chunk;
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, send_chunk);
      out.emplace_payload().sparse_values.emplace_back(data.begin() + r.begin,
                                                       data.begin() + r.end);
    }
    net.send(self, comm.my_endpoint(),
             comm.endpoints[static_cast<std::size_t>(right)], std::move(out));

    Packet in = net.recv(self, comm.my_endpoint(), ag_tag);
    common::check(in.a == recv_chunk, "ring_allreduce: gather order violated");
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, recv_chunk);
      const auto& vals = in.sparse_values(0);
      common::check(vals.size() == r.size(), "ring_allreduce: chunk size");
      std::copy(vals.begin(), vals.end(), data.begin() + r.begin);
    }
  }
}

ElasticStatus ring_allreduce_elastic(runtime::Process& self,
                                     const Communicator& comm,
                                     std::span<float> data,
                                     std::uint64_t total_wire_bytes,
                                     int tag_region, std::int64_t epoch,
                                     double poll_s,
                                     const std::function<bool()>& abort) {
  common::check(comm.net != nullptr && comm.size() > 0,
                "ring_allreduce_elastic: bad communicator");
  common::check(poll_s > 0.0, "ring_allreduce_elastic: poll must be > 0");
  const int n = comm.size();
  if (n == 1) return {true};
  Network& net = *comm.net;
  const int me = comm.my_rank;
  const int right = (me + 1) % n;

  const int rs_tag = epoch_tag_base(tag_region, epoch);
  const int ag_tag = rs_tag + 1;

  // Deadline-poll receive: wait in poll_s slices, checking the abort
  // condition between slices, and discard stale aliased-epoch packets.
  // Within one epoch each rank runs at most one attempt, so the FIFO
  // channel preserves chunk order among same-epoch packets.
  const auto recv_epoch = [&](int tag) -> std::optional<Packet> {
    for (;;) {
      if (abort && abort()) return std::nullopt;
      std::optional<Packet> in =
          net.recv_until(self, comm.my_endpoint(), tag, self.now() + poll_s);
      if (!in.has_value()) continue;
      if (in->c != epoch) continue;  // stale traffic aliasing the tag pair
      return in;
    }
  };

  // Reduce-Scatter (chunk schedule identical to ring_allreduce).
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (me - step + n) % n;
    const int recv_chunk = (me - step - 1 + n) % n;

    Packet out;
    out.tag = rs_tag;
    out.wire_bytes = chunk_wire_bytes(total_wire_bytes, n, send_chunk);
    out.a = send_chunk;
    out.c = epoch;
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, send_chunk);
      out.emplace_payload().sparse_values.emplace_back(data.begin() + r.begin,
                                                       data.begin() + r.end);
    }
    net.send(self, comm.my_endpoint(),
             comm.endpoints[static_cast<std::size_t>(right)], std::move(out));

    std::optional<Packet> in = recv_epoch(rs_tag);
    if (!in.has_value()) return {false};
    common::check(in->a == recv_chunk,
                  "ring_allreduce_elastic: chunk order violated");
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, recv_chunk);
      const auto& vals = in->sparse_values(0);
      common::check(vals.size() == r.size(),
                    "ring_allreduce_elastic: chunk size");
      for (std::size_t i = 0; i < vals.size(); ++i) {
        data[r.begin + i] += vals[i];
      }
    }
  }

  // All-Gather.
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (me + 1 - step + n) % n;
    const int recv_chunk = (me - step + n) % n;

    Packet out;
    out.tag = ag_tag;
    out.wire_bytes = chunk_wire_bytes(total_wire_bytes, n, send_chunk);
    out.a = send_chunk;
    out.c = epoch;
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, send_chunk);
      out.emplace_payload().sparse_values.emplace_back(data.begin() + r.begin,
                                                       data.begin() + r.end);
    }
    net.send(self, comm.my_endpoint(),
             comm.endpoints[static_cast<std::size_t>(right)], std::move(out));

    std::optional<Packet> in = recv_epoch(ag_tag);
    if (!in.has_value()) return {false};
    common::check(in->a == recv_chunk,
                  "ring_allreduce_elastic: gather order violated");
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, recv_chunk);
      const auto& vals = in->sparse_values(0);
      common::check(vals.size() == r.size(),
                    "ring_allreduce_elastic: chunk size");
      std::copy(vals.begin(), vals.end(), data.begin() + r.begin);
    }
  }
  return {true};
}

int flush_stale_epochs(runtime::Process& self, Network& net, int endpoint,
                       int tag_region, std::int64_t epoch) {
  const int keep = epoch_tag_base(tag_region, epoch);
  int flushed = 0;
  for (int tag = tag_region; tag < tag_region + 2 * kEpochTagSpan; ++tag) {
    if (tag == keep || tag == keep + 1) continue;
    while (net.try_recv(self, endpoint, tag).has_value()) ++flushed;
  }
  return flushed;
}

void barrier(runtime::Process& self, const Communicator& comm, int tag_base) {
  common::check(comm.net != nullptr && comm.size() > 0, "barrier: bad comm");
  const int n = comm.size();
  if (n == 1) return;
  Network& net = *comm.net;
  const int enter_tag = tag_base;
  const int leave_tag = tag_base + 1;

  if (comm.my_rank == 0) {
    for (int i = 0; i < n - 1; ++i) {
      (void)net.recv(self, comm.my_endpoint(), enter_tag);
    }
    for (int r = 1; r < n; ++r) {
      Packet p;
      p.tag = leave_tag;
      p.wire_bytes = kControlBytes;
      net.send(self, comm.my_endpoint(),
               comm.endpoints[static_cast<std::size_t>(r)], std::move(p));
    }
  } else {
    Packet p;
    p.tag = enter_tag;
    p.wire_bytes = kControlBytes;
    net.send(self, comm.my_endpoint(), comm.endpoints[0], std::move(p));
    (void)net.recv(self, comm.my_endpoint(), leave_tag);
  }
}

}  // namespace dt::net
