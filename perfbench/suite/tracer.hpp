// Outside-in span tracer of the benchmark.
//
// Spans are taken around the benchmark's own calls into each library layer
// and around every probe — never inside the library. They are kept in
// memory and written once, at exit. Tracing is off for the timed
// repetitions; a separate traced pass turns it on.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;  // index into spans(), -1 for a root span
    int run = 0;      // repetition id the span belongs to
  };

  /// Per-name totals; self time is a span's duration minus the part of
  /// it its child spans cover.
  struct Stats {
    std::string name;
    int count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(int run) noexcept { run_ = run; }
  /// Drops every recorded span (between workloads of one invocation).
  void clear() noexcept {
    spans_.clear();
    open_.clear();
  }

  /// Opens a span; returns its index, or -1 while tracing is off.
  int begin(std::string name);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Aggregates over every span, sorted by descending self time.
  [[nodiscard]] std::vector<Stats> stats() const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// The benchmark's tracer (single-threaded: spans are only opened on the
/// benchmark's thread).
Tracer& tracer();

/// RAII span on tracer().
class Scope {
 public:
  explicit Scope(std::string name) : index_(tracer().begin(std::move(name))) {}
  ~Scope() { tracer().end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

}  // namespace pb
