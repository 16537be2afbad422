// dtrainlib benchmark. See perfbench/README.md for the workloads,
// the metrics and how to run it (normally through perfbench/run.py).
//
//   perfbench --workload <name|all> [--seed N] [--seconds S]
//                    [--trace 0|1] [--pins PATH] [--out DIR]
//                    [--git-rev REV] [--src-digest HEX] [--write-pins]
//
// --trace 0: the closed loop repeats the workload's fixed work for S
// seconds with tracing off and reports the end-to-end metrics (medians over
// the repetitions, each scaled to the reference CPU speed by the speed
// probe).
// --trace 1: untraced and traced passes of S/2 seconds each, then the
// layer probes; reports every per-layer metric and the tracing overhead.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "oracle.hpp"
#include "speed.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"runtime.events", "count"},
    {"runtime.wakes", "count"},
    {"runtime.peak_ready", "count"},
    {"runtime.engine_s", "s"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.switch_ns", "ns"},
    {"runtime.offload_speedup", "ratio"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.inter_machine_bytes", "B"},
    {"net.send_recv_ns", "ns"},
    {"net.ring_allreduce_ms", "ms"},
    {"net.ring_messages_per_allreduce", "count"},
    {"net.retransmits", "count"},
    {"net.lost", "count"},
    {"net.dup_delivered", "count"},
    {"net.goodput_ratio", "ratio"},
    {"net.reliable_send_us", "us"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"nn.forward_us", "us"},
    {"nn.backward_us", "us"},
    {"nn.optimizer_us", "us"},
    {"compress.dgc_ns_per_elem", "ns"},
    {"compress.dgc_wire_ratio", "ratio"},
    {"ps.apply_ns_per_elem", "ns"},
    {"ps.staged_sum_ns_per_elem", "ns"},
    {"data.build_s", "s"},
    {"core.setup_s", "s"},
    {"core.outside_engine_s", "s"},
    {"profile.analyze_ms", "ms"},
    {"profile.spans", "count"},
    {"campaign.cold_s", "s"},
    {"campaign.warm_s", "s"},
    {"campaign.executed", "count"},
    {"campaign.cache_hits", "count"},
    {"campaign.cache_store_us", "us"},
    {"campaign.cache_load_us", "us"},
    {"campaign.runner_threads", "count"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_pins = false;
  std::string pins = "perfbench/pins.txt";
  std::string out = "perfbench/.out";
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1] [--pins PATH] [--out DIR] "
               "[--git-rev REV] [--src-digest HEX] [--write-pins]\n"
            << "workloads:";
  for (const auto& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--write-pins") {
      a.write_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stod(v);
      } else if (key == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (key == "--pins") {
        a.pins = v;
      } else if (key == "--out") {
        a.out = v;
      } else if (key == "--git-rev") {
        a.git_rev = v;
      } else if (key == "--src-digest") {
        a.src_digest = v;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 3600.0) {
    usage("--seconds out of range");
  }
  return a;
}

/// The CPUs this process may run on.
std::vector<int> host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

std::string proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// Process-wide resident-set high-water mark (VmHWM), MB.
double peak_rss_mb() {
  const std::string v = proc_field("/proc/self/status", "VmHWM");
  return v == "unknown" ? 0.0 : std::stod(v) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Samples {
  std::vector<double> v;

  [[nodiscard]] double quantile(double q) const {
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    if (s.empty()) return 0.0;
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }
};

/// Everything one workload's invocation reports.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  int attempted = 0;
  int failed = 0;
  int compute_threads = 0;
  int runner_threads = 0;
};

class Runner {
 public:
  Runner(const Args& args, Ctx ctx, std::vector<int> cpus, Oracle oracle)
      : args_(args),
        ctx_(std::move(ctx)),
        cpus_(std::move(cpus)),
        oracle_(std::move(oracle)) {}

  Report run(const WorkloadDef& w) {
    report_ = {};
    pinned_ = ctx_.seed == kDefaultSeed && !args_.write_pins;
    std::cerr << "== " << w.name << " (seed " << ctx_.seed << ", "
              << (args_.trace ? "traced" : "untraced") << ", "
              << args_.seconds << " s)\n";

    // Warm-up repetition: lazy set-up finishes before timing starts. Its
    // results are checked like every other repetition's.
    const RepResult warm = w.run(ctx_);
    check(w.name, warm.runs, true);
    self_test(warm);
    if (args_.write_pins) {
      for (const auto& r : warm.runs) {
        oracle_.pin(w.name, r.label, r.fingerprint);
      }
    }
    for (const auto& r : warm.runs) {
      if (r.compute_threads > 0) report_.compute_threads = r.compute_threads;
    }
    report_.runner_threads = warm.campaign_runner_threads;

    if (args_.trace) {
      traced(w, warm);
    } else {
      untraced(w);
    }
    return report_;
  }

  void save_pins(const std::string& provenance) const {
    oracle_.save(args_.pins,
                 "# Virtual-time fingerprints of every run at the default "
                 "seed (" + std::to_string(kDefaultSeed) + "), one\n"
                 "# <workload>\\t<run>\\t<fingerprint> per line. Regenerate "
                 "with perfbench/run.py --workload all --write-pins\n"
                 "# only for a change that is meant to alter simulated "
                 "results. Captured on:\n# " + provenance + "\n");
  }

 private:
  struct Pass {
    Samples wall, setup, rate;  // scaled to the reference CPU speed
    Samples host_wall, speed;   // as measured; reference / probe time
    RepResult last;
  };

  /// Closed loop: the next repetition starts when the previous one ends.
  /// A serial workload's repetitions take the process's CPUs in turn: an
  /// unpinned single thread stays on one CPU for seconds, so a neighbour
  /// contending for that core would otherwise bias a whole run.
  ///
  /// The speed probe runs on the repetition's CPUs just before and after
  /// it (and between the runs of a multi-run repetition), and the
  /// repetition's times are scaled by kProbeRefS over the mean probe time:
  /// the seconds it would take at full speed.
  Pass loop(const WorkloadDef& w, double seconds, int first_run_id) {
    Pass p;
    const auto start = Clock::now();
    int id = first_run_id;
    do {
      const std::vector<int> cpus =
          w.serial ? std::vector<int>{cpus_[static_cast<std::size_t>(id) %
                                            cpus_.size()]}
                   : cpus_;
      const double before = speed_probe_s(cpus);
      tracer().set_run(id++);
      RepResult rep = w.run(ctx_);
      double probes = before + speed_probe_s(cpus);
      for (double t : rep.probes_s) probes += t;
      const double speed =
          kProbeRefS * static_cast<double>(2 + rep.probes_s.size()) / probes;
      check(w.name, rep.runs, true);
      p.host_wall.v.push_back(rep.wall_s);
      p.speed.v.push_back(speed);
      p.wall.v.push_back(rep.wall_s * speed);
      p.setup.v.push_back(rep.setup_s * speed);
      const double running = (rep.wall_s - rep.setup_s) * speed;
      p.rate.v.push_back(running > 0.0 ? rep.samples / running : 0.0);
      p.last = std::move(rep);
    } while (seconds_since(start) < seconds);
    set_cpus(cpus_);
    return p;
  }

  void untraced(const WorkloadDef& w) {
    const Pass p = loop(w, args_.seconds, 1);
    const double rss = peak_rss_mb();
    add("wall_s", p.wall, "s");
    add("setup_s", p.setup, "s");
    add("sim_samples_per_s", p.rate, "1/s");
    std::cout << "  as measured: wall_s median " << num(p.host_wall.median())
              << " s, min " << num(p.host_wall.min())
              << " s; probe speed median " << num(p.speed.median())
              << ", min " << num(p.speed.min()) << ", max "
              << num(p.speed.max()) << " of full\n";
    report_.metrics.push_back({"peak_rss_mb", {rss, "MB"}});
    std::cout << "  peak_rss_mb = " << num(rss) << " MB (VmHWM)\n";
  }

  void traced(const WorkloadDef& w, const RepResult& warm) {
    tracer().clear();
    const Pass plain = loop(w, args_.seconds / 2.0, 1);
    tracer().set_enabled(true);
    const Pass with = loop(w, args_.seconds / 2.0, 1000);
    // Tracing observes; the simulated results must not move.
    for (std::size_t i = 0; i < with.last.runs.size(); ++i) {
      if (i < warm.runs.size() &&
          with.last.runs[i].fingerprint != warm.runs[i].fingerprint) {
        fail(w.name + "/" + with.last.runs[i].label +
             ": traced fingerprint differs from the untraced one");
      }
    }
    LayerValues values;
    tracer().set_run(-1);
    {
      Scope span("probes." + w.name);
      check(w.name, w.layers(ctx_, with.last, values), false);
    }
    tracer().set_enabled(false);
    const double overhead = with.wall.median() - plain.wall.median();
    values["trace.overhead_s"] = overhead;

    std::cout << "  untraced wall_s median " << num(plain.wall.median())
              << " s (n=" << plain.wall.v.size() << "), traced "
              << num(with.wall.median()) << " s (n=" << with.wall.v.size()
              << "): tracing overhead " << num(overhead) << " s\n";
    std::cout << "  span self time over the traced pass and the probes:\n";
    for (const auto& st : tracer().stats()) {
      std::printf("    %-40s n=%-6d total %10.6f s  self %10.6f s\n",
                  st.name.c_str(), st.count, st.total_s, st.self_s);
    }
    std::fflush(stdout);
    std::filesystem::create_directories(ctx_.out_dir);
    const std::string spans = ctx_.out_dir + "/spans-" + w.name + "-seed" +
                              std::to_string(ctx_.seed) + ".jsonl";
    tracer().write_jsonl(spans);
    std::cout << "  spans written to " << spans << "\n";

    for (const MetricDef& m : kLayerMetrics) {
      const auto it = values.find(m.name);
      const double v = it == values.end() ? 0.0 : it->second;
      report_.metrics.push_back({m.name, {v, m.unit}});
      std::cout << "  " << m.name << " = " << num(v) << " " << m.unit << "\n";
    }
    purpose(w.name, values, with.last);
  }

  /// States whether the workload loads the layers it was chosen for.
  void purpose(const std::string& name, const LayerValues& v,
               const RepResult& rep) {
    const auto at = [&v](const char* key) {
      const auto it = v.find(key);
      return it == v.end() ? 0.0 : it->second;
    };
    const bool numerics =
        at("nn.forward_us") > 0.0 || at("tensor.gemm_gflops") > 0.0;
    const bool reliable =
        at("net.retransmits") > 0.0 || at("net.dup_delivered") > 0.0;
    const bool ring = at("net.ring_allreduce_ms") > 0.0;
    const double dgc_ratio = at("compress.dgc_wire_ratio");
    std::vector<std::pair<std::string, bool>> claims;
    if (name == "ps-bsp-512w") {
      const double share =
          rep.wall_s > 0.0 ? at("runtime.engine_s") / rep.wall_s : 0.0;
      claims = {{"runtime.engine_s is " + num(100.0 * share) +
                     "% of wall_s (dominates)", share > 0.5},
                {"no ring_allreduce work", !ring},
                {"no nn/tensor work", !numerics},
                {"no reliable-transport counters", !reliable}};
    } else if (name == "ring-arsgd-128w") {
      claims = {{"ring_allreduce work present", ring},
                {"no nn/tensor work", !numerics},
                {"no reliable-transport counters", !reliable}};
    } else if (name == "functional-paper-24w") {
      claims = {{"nn/tensor work present", numerics},
                {"DGC shrinks the wire bytes",
                 dgc_ratio > 0.0 && dgc_ratio < 1.0},
                {"no reliable-transport counters", !reliable}};
    } else {
      claims = {{"reliable-transport counters non-zero", reliable},
                {"warm campaign all cache hits",
                 at("campaign.cache_hits") == at("campaign.executed") &&
                     at("campaign.executed") > 0.0},
                {"no nn/tensor work", !numerics}};
    }
    for (const auto& [what, ok] : claims) {
      std::cout << "  purpose: " << what << ": "
                << (ok ? "confirmed" : "NOT CONFIRMED") << "\n";
    }
  }

  /// Reports the median of `s`, with the distribution around it.
  void add(const std::string& name, const Samples& s,
           const std::string& unit) {
    report_.metrics.push_back({name, {s.median(), unit}});
    const std::size_t n = s.v.size();
    std::cout << "  " << name << " = " << num(s.median()) << " " << unit
              << " (median of n=" << n << "; min " << num(s.min()) << ", q1 "
              << num(s.quantile(0.25)) << ", q3 " << num(s.quantile(0.75));
    // Highest percentile with at least ten samples beyond it.
    if (n > 10) {
      const double q = std::floor(100.0 * static_cast<double>(n - 10) /
                                  static_cast<double>(n)) / 100.0;
      std::cout << ", p" << num(100.0 * q) << " " << num(s.quantile(q));
    }
    std::cout << ", max " << num(s.max()) << ")\n";
  }

  void check(const std::string& workload, const std::vector<RunOutcome>& runs,
             bool pinned) {
    for (const RunOutcome& r : runs) {
      ++report_.attempted;
      const auto bad =
          check_run(oracle_, workload, r, kRunBudgetS, pinned && pinned_);
      if (bad.empty()) continue;
      ++report_.failed;
      for (const auto& b : bad) std::cerr << "  FAILED: " << b << "\n";
    }
  }

  void fail(const std::string& what) {
    ++report_.attempted;
    ++report_.failed;
    std::cerr << "  FAILED: " << what << "\n";
  }

  void self_test(const RepResult& rep) {
    ++report_.attempted;
    const std::string bad = rep.runs.empty()
                                ? "self-test: no run"
                                : oracle_self_test(rep.runs.front());
    if (bad.empty()) {
      std::cerr << "  oracle self-test: perturbed expectation reported\n";
    } else {
      ++report_.failed;
      std::cerr << "  FAILED: " << bad << "\n";
    }
  }

  const Args& args_;
  Ctx ctx_;
  std::vector<int> cpus_;  // never empty
  Oracle oracle_;
  Report report_;
  bool pinned_ = false;
};

std::string provenance_json(const Args& args, const Ctx& ctx,
                            const Report& r) {
  std::ostringstream os;
  os << "{\"provenance\":{\"nproc\":" << ctx.nproc << ",\"cpu_model\":\""
     << json_escape(proc_field("/proc/cpuinfo", "model name"))
     << "\",\"compiler\":\"" << PB_COMPILER << "\",\"build_type\":\""
     << PB_BUILD_TYPE << "\",\"cxx_flags\":\"" << PB_CXX_FLAGS
     << "\",\"native_kernels\":\"" << PB_NATIVE_KERNELS
     << "\",\"kernel_flags\":\"" << PB_KERNEL_FLAGS << "\",\"git_rev\":\""
     << json_escape(args.git_rev) << "\",\"src_digest\":\""
     << json_escape(args.src_digest)
     << "\",\"compute_threads\":" << r.compute_threads
     << ",\"runner_threads\":" << r.runner_threads << ",\"seed\":" << ctx.seed
     << ",\"workload\":\"" << json_escape(args.workload)
     << "\",\"seconds\":" << num(args.seconds)
     << ",\"trace\":" << (args.trace ? 1 : 0) << "}}";
  return os.str();
}

std::string result_json(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max(1, r.attempted)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << num(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  return os.str();
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<const WorkloadDef*> selected;
  for (const auto& w : workloads()) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) usage("unknown workload " + args.workload);
  if (args.write_pins && args.seed != kDefaultSeed) {
    usage("--write-pins needs the default seed");
  }

  Ctx ctx;
  ctx.seed = args.seed;
  std::vector<int> cpus = host_cpus();
  if (cpus.empty()) cpus.push_back(sched_getcpu());
  ctx.nproc = static_cast<int>(cpus.size());
  ctx.out_dir = args.out;
  std::filesystem::create_directories(ctx.out_dir);

  Runner runner(args, ctx, std::move(cpus), Oracle::load(args.pins));
  Report total;
  std::string provenance;
  for (const WorkloadDef* w : selected) {
    std::cout << "workload " << w->name << ": " << w->why << "\n";
    const Report r = runner.run(*w);
    provenance = provenance_json(args, ctx, r);
    std::cout << "  " << provenance << "\n";
    std::cout << "  runs attempted " << r.attempted << ", failed " << r.failed
              << "\n";
    if (selected.size() == 1) {
      total = r;
      break;
    }
    // --workload all: one result line per workload, then a combined one
    // with workload-qualified metric names.
    std::cout << "  " << result_json(r) << "\n";
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (const auto& m : r.metrics) {
      total.metrics.push_back({w->name + "." + m.first, m.second});
    }
  }
  if (args.write_pins) {
    runner.save_pins(provenance);
    std::cerr << "pins written to " << args.pins << "\n";
  }
  std::cout << result_json(total) << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
