#include "speed.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "bench.hpp"

namespace pb {

double speed_probe_s() {
  constexpr int kN = 64;
  static std::array<float, kN * kN> a, b, c;
  static std::array<std::uint32_t, 1 << 14> table;
  a.fill(0.5f);
  b.fill(0.25f);
  double best = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    c.fill(0.0f);
    table.fill(0);
    const auto t0 = Clock::now();
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < kN; ++i) {
        for (int k = 0; k < kN; ++k) {
          const float aik = a[i * kN + k];
          for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
        }
      }
    }
    std::uint32_t x = 12345;
    for (int i = 0; i < 80000; ++i) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      std::uint32_t& e = table[x & (table.size() - 1)];
      e = (e & 1) != 0 ? e + x : e ^ (x >> 3);
    }
    asm volatile("" : : "g"(x), "g"(c.data()) : "memory");
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

double speed_probe_s(const std::vector<int>& cpus) {
  double sum = 0.0;
  for (int c : cpus) {
    set_cpus({c});
    sum += speed_probe_s();
  }
  set_cpus(cpus);
  return sum / static_cast<double>(cpus.size());
}

void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (!cpus.empty()) sched_setaffinity(0, sizeof set, &set);
}

}  // namespace pb
