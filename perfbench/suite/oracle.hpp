// Correctness oracle: simulated results are checked, not measured.
//
// For the default seed every run's virtual-time fingerprint is pinned in
// perfbench/pins.txt. For any seed the invariants that need no pin are
// checked as the runs complete (expected sample counts, warm-cache byte
// identity, traced == untraced). Every violation counts one failed run.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace pb {

class Oracle {
 public:
  /// Loads pins: one "<workload>\t<label>\t<fingerprint>" per line, '#'
  /// starts a comment. A missing file yields an empty oracle.
  static Oracle load(const std::string& path);

  /// Mismatch description, or nullopt when `fingerprint` equals the pin.
  /// A run without a pin is a mismatch: the default seed must be pinned.
  [[nodiscard]] std::optional<std::string> check(
      const std::string& workload, const std::string& label,
      const std::string& fingerprint) const;

  void pin(const std::string& workload, const std::string& label,
           const std::string& fingerprint);
  /// Rewrites `path` keeping the other workloads' pins; `header` becomes
  /// the leading comment block.
  void save(const std::string& path, const std::string& header) const;

 private:
  std::map<std::pair<std::string, std::string>, std::string> pins_;
};

/// Every check on one run: it threw, the workload reported a problem, it
/// exceeded the wall budget, its sample count broke the sync invariant, or
/// (`pinned`) its fingerprint differs from the pin. Returns the violations
/// (empty = passed).
[[nodiscard]] std::vector<std::string> check_run(const Oracle& oracle,
                                                 const std::string& workload,
                                                 const RunOutcome& run,
                                                 double budget_s, bool pinned);

/// Oracle self-test: pins `sample`'s own fingerprint, then a perturbed
/// copy of it, and requires the first to pass and the second to be
/// reported. Returns an empty string on success, else what went wrong.
[[nodiscard]] std::string oracle_self_test(const RunOutcome& sample);

}  // namespace pb
