#include "oracle.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

std::string fnv1a_hex(const void* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string run_fingerprint(const dt::metrics::RunResult& r,
                            const std::string& param_hash) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "vd=%.17g samples=%lld wire_bytes=%llu wire_messages=%llu",
                r.virtual_duration, static_cast<long long>(r.total_samples),
                static_cast<unsigned long long>(r.wire_bytes),
                static_cast<unsigned long long>(r.wire_messages));
  std::string fp = buf;
  if (!param_hash.empty()) {
    std::snprintf(buf, sizeof buf, " acc=%.17g params=%s", r.final_accuracy,
                  param_hash.c_str());
    fp += buf;
  }
  return fp;
}

Oracle Oracle::load(const std::string& path) {
  Oracle o;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto t1 = line.find('\t');
    const auto t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string::npos) {
      throw std::runtime_error("pins: malformed line in " + path + ": " +
                               line);
    }
    o.pin(line.substr(0, t1), line.substr(t1 + 1, t2 - t1 - 1),
          line.substr(t2 + 1));
  }
  return o;
}

std::optional<std::string> Oracle::check(const std::string& workload,
                                         const std::string& label,
                                         const std::string& fingerprint) const {
  const auto it = pins_.find({workload, label});
  if (it == pins_.end()) {
    return "no pin for " + workload + "/" + label + " (got " + fingerprint +
           ")";
  }
  if (it->second != fingerprint) {
    return workload + "/" + label + ": expected " + it->second + ", got " +
           fingerprint;
  }
  return std::nullopt;
}

void Oracle::pin(const std::string& workload, const std::string& label,
                 const std::string& fingerprint) {
  pins_[{workload, label}] = fingerprint;
}

void Oracle::save(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  out << header;
  for (const auto& [key, fp] : pins_) {
    out << key.first << '\t' << key.second << '\t' << fp << '\n';
  }
  out.flush();
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> check_run(const Oracle& oracle,
                                   const std::string& workload,
                                   const RunOutcome& run, double budget_s,
                                   bool pinned) {
  std::vector<std::string> out;
  if (!run.error.empty()) {
    out.push_back(workload + "/" + run.label + " threw: " + run.error);
    return out;
  }
  out.insert(out.end(), run.problems.begin(), run.problems.end());
  if (run.setup_s + run.run_s > budget_s) {
    out.push_back(workload + "/" + run.label + " exceeded the " +
                  std::to_string(budget_s) + " s wall budget");
  }
  if (run.expected_samples > 0 && run.samples != run.expected_samples) {
    out.push_back(workload + "/" + run.label + ": total_samples " +
                  std::to_string(run.samples) + " != workers x iterations x "
                  "batch = " + std::to_string(run.expected_samples));
  }
  if (pinned) {
    if (auto bad = oracle.check(workload, run.label, run.fingerprint)) {
      out.push_back(*bad);
    }
  }
  return out;
}

namespace {

/// Changes the last digit of the fingerprint's virtual duration (or, for
/// fingerprints without one, its last character) — the smallest edit a
/// real regression could make.
std::string perturb(std::string fp) {
  std::size_t pos = fp.size() - 1;
  if (const auto vd = fp.find("vd="); vd != std::string::npos) {
    pos = fp.find(' ', vd);
    pos = (pos == std::string::npos ? fp.size() : pos) - 1;
  }
  while (pos > 0 && !std::isxdigit(static_cast<unsigned char>(fp[pos]))) {
    --pos;
  }
  fp[pos] = fp[pos] == '1' ? '2' : '1';
  return fp;
}

}  // namespace

std::string oracle_self_test(const RunOutcome& sample) {
  if (sample.fingerprint.empty()) {
    return "self-test: sample run has no fingerprint";
  }
  const double no_budget = 1e300;
  Oracle oracle;
  oracle.pin("self-test", sample.label, sample.fingerprint);
  const auto genuine = check_run(oracle, "self-test", sample, no_budget, true);
  if (!genuine.empty()) {
    return "self-test: the true expectation was rejected: " + genuine.front();
  }
  const std::string perturbed = perturb(sample.fingerprint);
  oracle.pin("self-test", sample.label, perturbed);
  if (check_run(oracle, "self-test", sample, no_budget, true).empty()) {
    return "self-test: perturbed expectation " + perturbed +
           " was not reported";
  }
  return {};
}

}  // namespace pb
