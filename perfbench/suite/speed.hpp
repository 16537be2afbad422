// The speed probe. A shared host runs each CPU at full speed or, while a
// neighbour's work shares its physical core, at half to two thirds of it,
// in spells from milliseconds to minutes; thread CPU time slows the same
// way. The probe times fixed benchmark-owned work, so the closed loop can
// scale a repetition's times to what they would be at full speed. It is
// not library code: a change to the library moves the repetition and not
// the probe.
#pragma once

#include <vector>

namespace pb {

/// The speed probe's time at full speed: its fastest pass out of ~16 000
/// on the 4 vCPUs of a shared 2.0 GHz Xeon (Sapphire Rapids) KVM guest.
inline constexpr double kProbeRefS = 0.304e-3;

/// Seconds the probe's work (a small float matmul and a hashed table walk)
/// takes on the calling thread now; the fastest of three passes, so an
/// interrupt does not count.
[[nodiscard]] double speed_probe_s();

/// Mean probe time over `cpus`, running on each in turn; leaves the thread
/// restricted to `cpus`.
[[nodiscard]] double speed_probe_s(const std::vector<int>& cpus);

/// Restricts the calling thread to `cpus` (threads it starts inherit it).
void set_cpus(const std::vector<int>& cpus);

}  // namespace pb
