#include "profile/critical_path.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/table.hpp"

namespace dt::profile {

const char* cost_class_name(CostClass c) noexcept {
  switch (c) {
    case CostClass::compute: return "compute";
    case CostClass::local_agg: return "local agg";
    case CostClass::comm: return "comm (wire)";
    case CostClass::ps: return "ps queue/agg";
    case CostClass::wait: return "wait (block)";
  }
  return "unknown";
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Records grouped by a small integer (a rank, an endpoint), each group
/// ordered by a double key: group g holds positions [off[g], off[g + 1])
/// of `key` and of `id`, the record's capture index. Searches run over the
/// plain keys and touch a record only once they have a hit.
struct KeyIndex {
  std::vector<std::size_t> off;
  std::vector<double> key;
  std::vector<std::uint32_t> id;

  [[nodiscard]] std::size_t groups() const noexcept { return off.size() - 1; }
  [[nodiscard]] const double* begin(std::size_t g) const noexcept {
    return key.data() + off[g];
  }
  [[nodiscard]] const double* end(std::size_t g) const noexcept {
    return key.data() + off[g + 1];
  }
  [[nodiscard]] std::size_t pos(const double* k) const noexcept {
    return static_cast<std::size_t>(k - key.data());
  }
};

/// Orders positions [b, e) of `ix` by (key, capture index). Records are
/// captured almost in key order (edges at send time, whose arrivals at
/// one endpoint mostly follow), so the few that break the order are taken
/// out, sorted and merged back from the end: O(n + k log k) for k of them.
void sort_group(KeyIndex& ix, std::size_t b, std::size_t e,
                std::vector<std::pair<double, std::uint32_t>>& late) {
  late.clear();
  std::size_t run = b;  // the in-order records, compacted to [b, run)
  for (std::size_t i = b; i < e; ++i) {
    const double k = ix.key[i];
    if ((run == b || k >= ix.key[run - 1]) &&
        (i + 1 == e || k <= ix.key[i + 1])) {
      ix.key[run] = k;
      ix.id[run] = ix.id[i];
      ++run;
    } else {
      late.emplace_back(k, ix.id[i]);
    }
  }
  if (late.empty()) return;
  std::sort(late.begin(), late.end(), [](const auto& x, const auto& y) {
    return x.first < y.first || (x.first == y.first && x.second < y.second);
  });
  std::size_t out = e;
  for (std::size_t l = late.size(); l > 0;) {
    const auto& [k, id] = late[l - 1];
    --out;
    if (run > b && (ix.key[run - 1] > k ||
                    (ix.key[run - 1] == k && ix.id[run - 1] > id))) {
      --run;
      ix.key[out] = ix.key[run];
      ix.id[out] = ix.id[run];
    } else {
      --l;
      ix.key[out] = k;
      ix.id[out] = id;
    }
  }
}

/// Groups `recs` by group_of (records outside [0, groups) are skipped) and
/// orders each group by (key_of, capture index): equal keys keep capture
/// order.
template <class Rec, class GroupOf, class KeyOf>
KeyIndex build_index(const std::vector<Rec>& recs, std::size_t groups,
                     GroupOf group_of, KeyOf key_of) {
  common::check(recs.size() <= std::numeric_limits<std::uint32_t>::max(),
                "analyze: span log too large to index");
  const auto group = [&](const Rec& r) {
    const int g = group_of(r);
    return g >= 0 && static_cast<std::size_t>(g) < groups
               ? static_cast<std::size_t>(g)
               : groups;
  };
  KeyIndex ix;
  ix.off.assign(groups + 1, 0);
  for (const Rec& r : recs) {
    const std::size_t g = group(r);
    if (g < groups) ++ix.off[g + 1];
  }
  for (std::size_t g = 1; g <= groups; ++g) ix.off[g] += ix.off[g - 1];
  ix.key.resize(ix.off[groups]);
  ix.id.resize(ix.off[groups]);
  std::vector<std::size_t> fill(ix.off.begin(), ix.off.end() - 1);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::size_t g = group(recs[i]);
    if (g == groups) continue;
    const std::size_t at = fill[g]++;
    ix.key[at] = key_of(recs[i]);
    ix.id[at] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::pair<double, std::uint32_t>> late;
  for (std::size_t g = 0; g < groups; ++g) {
    sort_group(ix, ix.off[g], ix.off[g + 1], late);
  }
  return ix;
}

/// Index structures + the backward walk over one SpanLog.
class Walker {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  Walker(const SpanLog& log, int num_workers) : log_(log) {
    const auto ranks = static_cast<std::size_t>(std::max(num_workers, 0));
    busy_ = build_index(
        log.spans(), ranks,
        [](const Span& s) {
          return (s.phase == 0 || s.phase == 1) && s.end > s.start ? s.worker
                                                                   : -1;
        },
        [](const Span& s) { return s.start; });
    busy_end_.resize(busy_.id.size());
    for (std::size_t i = 0; i < busy_.id.size(); ++i) {
      busy_end_[i] = log.spans()[busy_.id[i]].end;
    }
    busy_floor_ = busy_end_;
    for (std::size_t r = 0; r < ranks; ++r) {
      std::sort(busy_floor_.data() + busy_.off[r],
                busy_floor_.data() + busy_.off[r + 1]);
    }

    const std::size_t num_eps = log.endpoints().size();
    ep_rank_.assign(num_eps, -1);
    for (std::size_t id = 0; id < num_eps; ++id) {
      const int rank = log.endpoints()[id].worker_rank;
      if (rank >= 0 && rank < num_workers) ep_rank_[id] = rank;
    }
    // Capture order breaks arrival ties: the last-enqueued edge at an
    // arrival time is the enabling one.
    inbound_ = build_index(
        log.edges(), num_eps, [](const MessageEdge& e) { return e.dst; },
        [](const MessageEdge& e) { return e.arrival; });
  }

  /// Rank `r`'s busy (compute/local_agg) spans by start, capture order
  /// breaking ties: indices into log.spans().
  [[nodiscard]] std::span<const std::uint32_t> busy(int r) const {
    const auto g = static_cast<std::size_t>(r);
    return {busy_.id.data() + busy_.off[g], busy_.off[g + 1] - busy_.off[g]};
  }

  [[nodiscard]] int ep_rank(int ep) const noexcept {
    return (ep >= 0 && static_cast<std::size_t>(ep) < ep_rank_.size())
               ? ep_rank_[static_cast<std::size_t>(ep)]
               : -1;
  }

  /// Own busy (compute/local_agg) span covering t (start < t <= end), as a
  /// position in the busy index, or kNone. With nested spans the innermost
  /// (largest start) wins; the enclosing one is found again when the walk
  /// reaches its start.
  [[nodiscard]] std::size_t busy_covering(int rank, double t) const {
    const auto g = static_cast<std::size_t>(rank);
    const double* first = busy_.begin(g);
    // The first span with start >= t; candidates end just before it.
    std::size_t i = busy_.pos(std::lower_bound(first, busy_.end(g), t));
    for (int back = 0; back < 4 && i > busy_.pos(first); ++back) {
      --i;
      if (busy_end_[i] >= t) return i;
    }
    return kNone;
  }

  /// Largest busy-span end <= t for rank, or -inf.
  [[nodiscard]] double busy_floor(int rank, double t) const {
    const auto g = static_cast<std::size_t>(rank);
    const double* first = busy_floor_.data() + busy_.off[g];
    const double* it =
        std::upper_bound(first, busy_floor_.data() + busy_.off[g + 1], t);
    return it == first ? kNegInf : *(it - 1);
  }

  /// Enabling inbound edge: latest arrival <= t at `ep` (ties: latest in
  /// capture order), or nullptr.
  [[nodiscard]] const MessageEdge* inbound_before(int ep, double t) const {
    if (ep < 0 || static_cast<std::size_t>(ep) >= inbound_.groups()) {
      return nullptr;
    }
    const auto g = static_cast<std::size_t>(ep);
    const double* it =
        std::upper_bound(inbound_.begin(g), inbound_.end(g), t);
    return it == inbound_.begin(g)
               ? nullptr
               : &log_.edges()[inbound_.id[inbound_.pos(it) - 1]];
  }

  /// Backward walk over [t0, t1] starting at endpoint `ep` at time t1.
  /// Appends attributions whose seconds sum to exactly t1 - t0.
  void walk(int ep, double t0, double t1, std::int64_t round_hint,
            std::vector<PathSlice>& out) const {
    double t = t1;
    int cur = ep;
    std::int64_t round = round_hint;
    // Every iteration either charges a positive interval or traverses an
    // edge with positive transit (wire latency > 0); the guard only fires
    // on degenerate zero-length cycles and dumps the rest into `wait`.
    std::size_t guard =
        4 * (log_.spans().size() + log_.edges().size()) + 1024;
    while (t > t0) {
      if (guard-- == 0) {
        out.push_back(PathSlice{CostClass::wait, ep_rank(cur), round, t - t0});
        return;
      }
      const int rank = ep_rank(cur);
      if (rank >= 0) {
        const std::size_t i = busy_covering(rank, t);
        if (i != kNone) {
          const Span& s = log_.spans()[busy_.id[i]];
          const double lo = std::max(s.start, t0);
          out.push_back(PathSlice{
              s.phase == 1 ? CostClass::local_agg : CostClass::compute, rank,
              s.round, t - lo});
          round = s.round;
          t = lo;
          continue;
        }
      }
      const MessageEdge* e = inbound_before(cur, t);
      // The endpoint was idle just before t. It can only have been waiting
      // since the latest of: the enabling message's arrival, the end of its
      // own last busy span (never skip busy time backward), and t0.
      double stop = t0;
      if (rank >= 0) stop = std::max(stop, busy_floor(rank, t));
      if (e != nullptr) stop = std::max(stop, std::min(e->arrival, t));
      if (t > stop) {
        out.push_back(PathSlice{rank >= 0 ? CostClass::wait : CostClass::ps,
                                rank, round, t - stop});
        t = stop;
        continue;
      }
      if (e != nullptr && e->arrival == t) {
        // Cross the enabling message: transit charges to comm, then keep
        // walking at the sender.
        const double lo = std::max(std::min(e->sent, t), t0);
        if (t > lo) {
          out.push_back(
              PathSlice{CostClass::comm, ep_rank(e->src), round, t - lo});
        }
        t = lo;
        cur = e->src;
        continue;
      }
      // No enabling edge and no busy span: untraceable (e.g. spans from an
      // unregistered endpoint) — the rest of the interval is wait.
      out.push_back(PathSlice{rank >= 0 ? CostClass::wait : CostClass::ps,
                              rank, round, t - t0});
      t = t0;
    }
  }

 private:
  const SpanLog& log_;
  KeyIndex busy_;                   // per rank: busy span starts
  std::vector<double> busy_end_;    // each busy span's end, in busy_ order
  std::vector<double> busy_floor_;  // per rank (busy_.off): ends, sorted
  KeyIndex inbound_;                // per endpoint: edge arrivals
  std::vector<int> ep_rank_;
};

/// Merged, sorted busy intervals of one rank (for gap computation).
std::vector<std::pair<double, double>> merged_busy(
    const SpanLog& log, std::span<const std::uint32_t> sorted_busy) {
  std::vector<std::pair<double, double>> out;
  for (std::uint32_t i : sorted_busy) {
    const Span& s = log.spans()[i];
    if (!out.empty() && s.start <= out.back().second) {
      out.back().second = std::max(out.back().second, s.end);
    } else {
      out.emplace_back(s.start, s.end);
    }
  }
  return out;
}

/// Per-rank facts from one pass over the spans in capture order.
struct RankStats {
  std::vector<double> compute_total;    // busy compute seconds
  std::vector<std::int64_t> max_round;  // last busy round, -1: none
  std::vector<double> horizon;          // last span end
};

RankStats rank_stats(const SpanLog& log, int num_workers) {
  const auto n = static_cast<std::size_t>(num_workers);
  RankStats st{std::vector<double>(n, 0.0), std::vector<std::int64_t>(n, -1),
               std::vector<double>(n, 0.0)};
  for (const Span& s : log.spans()) {
    if (s.worker < 0 || s.worker >= num_workers) continue;
    const auto r = static_cast<std::size_t>(s.worker);
    st.horizon[r] = std::max(st.horizon[r], s.end);
    if ((s.phase == 0 || s.phase == 1) && s.end > s.start) {
      st.max_round[r] = std::max(st.max_round[r], s.round);
      if (s.phase == 0) st.compute_total[r] += s.end - s.start;
    }
  }
  return st;
}

/// The global critical path: backward from the last-finishing worker.
std::vector<PathSlice> global_path(const Walker& walker, const SpanLog& log,
                                   const RankStats& st, double makespan,
                                   int num_workers) {
  std::vector<PathSlice> path;
  if (makespan <= 0.0 || num_workers <= 0) return path;
  int start_rank = 0;
  double best_end = -1.0;
  for (int r = 0; r < num_workers; ++r) {
    if (st.horizon[static_cast<std::size_t>(r)] > best_end) {
      best_end = st.horizon[static_cast<std::size_t>(r)];
      start_rank = r;
    }
  }
  const std::int64_t hint = std::max<std::int64_t>(
      st.max_round[static_cast<std::size_t>(start_rank)], 0);
  walker.walk(log.endpoint_of_worker(start_rank), 0.0, makespan, hint, path);
  return path;
}

}  // namespace

std::vector<PathSlice> critical_path(const SpanLog& log, double makespan,
                                     int num_workers) {
  common::check(makespan >= 0.0, "critical_path: negative makespan");
  common::check(num_workers >= 0, "critical_path: negative worker count");
  return global_path(Walker(log, num_workers), log,
                     rank_stats(log, num_workers), makespan, num_workers);
}

RunProfile analyze(const SpanLog& log, double makespan, int num_workers,
                   std::int64_t iterations_per_epoch) {
  common::check(makespan >= 0.0, "analyze: negative makespan");
  common::check(num_workers >= 0, "analyze: negative worker count");

  RunProfile p;
  p.makespan = makespan;
  p.num_workers = num_workers;
  p.iterations_per_epoch = iterations_per_epoch;
  p.num_spans = log.spans().size();
  p.num_edges = log.edges().size();
  p.cp_busy_by_rank.assign(static_cast<std::size_t>(num_workers), 0.0);
  p.workers.assign(static_cast<std::size_t>(num_workers), ClassTotals{});
  p.mean_iter_compute.assign(static_cast<std::size_t>(num_workers), 0.0);

  const RankStats st = rank_stats(log, num_workers);
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_workers); ++r) {
    if (st.max_round[r] >= 0) {
      p.mean_iter_compute[r] =
          st.compute_total[r] / static_cast<double>(st.max_round[r] + 1);
    }
  }

  const Walker walker(log, num_workers);
  std::map<std::int64_t, ClassTotals> rounds;
  for (const PathSlice& a :
       global_path(walker, log, st, makespan, num_workers)) {
    p.critical.add(a.cls, a.seconds);
    if ((a.cls == CostClass::compute || a.cls == CostClass::local_agg) &&
        a.rank >= 0 && a.rank < num_workers) {
      p.cp_busy_by_rank[static_cast<std::size_t>(a.rank)] += a.seconds;
    }
    rounds[std::max<std::int64_t>(a.round, 0)].add(a.cls, a.seconds);
  }
  p.rounds.reserve(rounds.size());
  for (const auto& [round, cls] : rounds) {
    p.rounds.push_back(RoundCost{round, cls});
  }

  // ---- Per-worker wall decomposition: own busy phases verbatim, gaps via
  // the same walk (other ranks' busy time maps to wait = straggler effect).
  std::vector<PathSlice> attrs;
  for (int r = 0; r < num_workers; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    ClassTotals& w = p.workers[ri];
    for (std::uint32_t i : walker.busy(r)) {
      const Span& s = log.spans()[i];
      w.add(s.phase == 1 ? CostClass::local_agg : CostClass::compute,
            s.end - s.start);
    }
    const int ep = log.endpoint_of_worker(r);
    double cursor = 0.0;
    auto attribute_gap = [&](double lo, double hi) {
      if (hi <= lo) return;
      attrs.clear();
      walker.walk(ep, lo, hi, std::max<std::int64_t>(st.max_round[ri], 0),
                  attrs);
      for (const PathSlice& a : attrs) {
        switch (a.cls) {
          case CostClass::comm: w.add(CostClass::comm, a.seconds); break;
          case CostClass::ps: w.add(CostClass::ps, a.seconds); break;
          case CostClass::compute:
          case CostClass::local_agg:
            // Someone else's busy time on this worker's wait path.
            w.add(a.rank == r ? a.cls : CostClass::wait, a.seconds);
            break;
          case CostClass::wait: w.add(CostClass::wait, a.seconds); break;
        }
      }
    };
    for (const auto& [lo, hi] : merged_busy(log, walker.busy(r))) {
      attribute_gap(cursor, lo);
      cursor = std::max(cursor, hi);
    }
    attribute_gap(cursor, st.horizon[ri]);
  }

  // ---- Analytic what-ifs (upper bounds; see header).
  p.whatif_fast_network = p.critical.get(CostClass::comm);
  p.whatif_no_ps = p.critical.get(CostClass::ps);
  p.whatif_no_wait = p.critical.get(CostClass::wait);
  if (num_workers > 0) {
    int worst = 0;
    for (int r = 1; r < num_workers; ++r) {
      if (p.cp_busy_by_rank[static_cast<std::size_t>(r)] >
          p.cp_busy_by_rank[static_cast<std::size_t>(worst)]) {
        worst = r;
      }
    }
    double best_rate = std::numeric_limits<double>::infinity();
    for (int r = 0; r < num_workers; ++r) {
      const double m = p.mean_iter_compute[static_cast<std::size_t>(r)];
      if (m > 0.0) best_rate = std::min(best_rate, m);
    }
    const double worst_mean =
        p.mean_iter_compute[static_cast<std::size_t>(worst)];
    if (worst_mean > 0.0 && best_rate < worst_mean) {
      p.straggler_rank = worst;
      p.whatif_no_straggler =
          p.cp_busy_by_rank[static_cast<std::size_t>(worst)] *
          (1.0 - best_rate / worst_mean);
    }
  }
  return p;
}

std::string format_report(const RunProfile& p) {
  std::ostringstream os;
  os << "== critical-path bottleneck report ==\n";
  os << "makespan (virtual s): " << common::fmt(p.makespan, 6)
     << "   workers: " << p.num_workers << "   spans: " << p.num_spans
     << "   edges: " << p.num_edges << "\n";
  if (p.iterations_per_epoch > 0) {
    os << "iterations/epoch: " << p.iterations_per_epoch << "\n";
  }

  common::Table t("critical-path attribution");
  t.set_header({"class", "seconds", "share"});
  for (int c = 0; c < kNumCostClasses; ++c) {
    const auto cls = static_cast<CostClass>(c);
    t.add_row({cost_class_name(cls), common::fmt(p.critical.get(cls), 6),
               common::fmt_pct(p.share(cls))});
  }
  t.add_row({"total", common::fmt(p.critical.total(), 6),
             common::fmt_pct(p.makespan > 0.0
                                 ? p.critical.total() / p.makespan
                                 : 0.0)});
  t.print(os);

  // Top ranks by critical busy time.
  std::vector<int> order(p.cp_busy_by_rank.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&p](int a, int b) {
    return p.cp_busy_by_rank[static_cast<std::size_t>(a)] >
           p.cp_busy_by_rank[static_cast<std::size_t>(b)];
  });
  os << "top critical-path ranks:";
  const std::size_t top = std::min<std::size_t>(order.size(), 3);
  for (std::size_t i = 0; i < top; ++i) {
    const int r = order[i];
    os << (i == 0 ? " " : ", ") << "worker " << r << " ("
       << common::fmt(p.cp_busy_by_rank[static_cast<std::size_t>(r)], 4)
       << " s busy)";
  }
  os << "\n";

  os << "what-if (analytic upper bounds; zeroing one class of the computed "
        "path):\n";
  auto whatif = [&os, &p](const char* label, double saved) {
    os << "  " << label << " => -"
       << common::fmt_pct(p.makespan > 0.0 ? saved / p.makespan : 0.0)
       << " (-" << common::fmt(saved, 6) << " s)\n";
  };
  whatif("infinitely fast network ", p.whatif_fast_network);
  whatif("zero PS queueing/service", p.whatif_no_ps);
  whatif("no blocking waits       ", p.whatif_no_wait);
  if (p.straggler_rank >= 0) {
    const std::string label =
        "remove straggler (worker " + std::to_string(p.straggler_rank) + ")";
    whatif(label.c_str(), p.whatif_no_straggler);
  }
  return os.str();
}

}  // namespace dt::profile
