// Error handling: invariant checks throw dt::common::Error with a formatted
// location-carrying message. Checks are always on (they guard simulator and
// training invariants whose violation would silently corrupt results, so the
// cost is worth it even in release builds).
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dt::common {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail(
    const std::string& message,
    std::source_location loc = std::source_location::current()) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": " << message;
  throw Error(os.str());
}

/// Throws dt::common::Error when `condition` is false.
inline void check(bool condition, const std::string& message,
                  std::source_location loc = std::source_location::current()) {
  if (!condition) fail(message, loc);
}

/// Same for a literal message, which becomes a std::string only on failure:
/// checks on hot paths then cost a compare, not a heap allocation.
inline void check(bool condition, const char* message,
                  std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] fail(message, loc);
}

}  // namespace dt::common
