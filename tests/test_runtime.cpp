// Tests for the cooperative virtual-time runtime: event ordering,
// determinism, wake semantics, daemons, deadlock detection, and error
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/sim.hpp"

namespace dt::runtime {
namespace {

TEST(Sim, SingleProcessAdvancesClock) {
  SimEngine engine;
  double observed = -1.0;
  engine.spawn("p", [&](Process& self) {
    EXPECT_EQ(self.now(), 0.0);
    self.advance(1.5);
    self.advance(0.5);
    observed = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Sim, ProcessesInterleaveInTimeOrder) {
  SimEngine engine;
  std::vector<std::string> log;
  engine.spawn("slow", [&](Process& self) {
    self.advance(10.0);
    log.push_back("slow@" + std::to_string(static_cast<int>(self.now())));
  });
  engine.spawn("fast", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      self.advance(2.0);
      log.push_back("fast@" + std::to_string(static_cast<int>(self.now())));
    }
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"fast@2", "fast@4", "fast@6",
                                           "slow@10"}));
}

TEST(Sim, FifoTieBreakAtEqualTimes) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn("p" + std::to_string(i), [&order, i](Process& self) {
      self.advance(1.0);
      order.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sim, ZeroAdvanceYieldsToPeersAtSameTime) {
  SimEngine engine;
  std::vector<int> order;
  engine.spawn("a", [&](Process& self) {
    order.push_back(1);
    self.advance(0.0);
    order.push_back(3);
  });
  engine.spawn("b", [&](Process&) { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Sim, NegativeAdvanceThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(-1.0); });
  EXPECT_THROW(engine.run(), common::Error);
}

TEST(Sim, WakeUnblocksAtRequestedTime) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event();
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(sleeper, 5.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 5.0);
}

TEST(Sim, WakeInThePastClampsToNow) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event();
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(3.0);
    self.engine().wake(sleeper, 1.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 3.0);
}

TEST(Sim, WakeMovesWakeableSleepEarlier) {
  SimEngine engine;
  double woken_at = -1.0;
  Process& sleeper = engine.spawn("sleeper", [&](Process& self) {
    self.wait_event_until(100.0);
    woken_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(2.0);
    self.engine().wake(sleeper, 4.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(woken_at, 4.0);
}

TEST(Sim, WakeDoesNotInterruptComputeAdvance) {
  SimEngine engine;
  double finished_at = -1.0;
  Process& computer = engine.spawn("computer", [&](Process& self) {
    self.advance(10.0);  // busy compute: not wakeable
    finished_at = self.now();
  });
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(computer, 2.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(finished_at, 10.0);
}

TEST(Sim, WaitEventUntilExpiresWithoutWake) {
  SimEngine engine;
  double t = -1.0;
  engine.spawn("p", [&](Process& self) {
    self.wait_event_until(7.0);
    t = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 7.0);
}

TEST(Sim, DaemonsAreKilledWhenRegularsFinish) {
  SimEngine engine;
  bool daemon_cleanup_ran = false;
  engine.spawn(
      "server",
      [&](Process& self) {
        struct Cleanup {
          bool* flag;
          ~Cleanup() { *flag = true; }
        } cleanup{&daemon_cleanup_ran};
        for (;;) self.wait_event();  // ProcessKilled unwinds through here
      },
      /*daemon=*/true);
  engine.spawn("worker", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_TRUE(daemon_cleanup_ran);
}

TEST(Sim, DeadlockOfRegularProcessesIsDetected) {
  SimEngine engine;
  Process* a_ptr = nullptr;
  Process* b_ptr = nullptr;
  Process& a = engine.spawn("A", [&](Process& self) {
    self.wait_event();  // waits for B, who waits for A
    self.engine().wake(*b_ptr, self.now());
  });
  Process& b = engine.spawn("B", [&](Process& self) {
    self.wait_event();
    self.engine().wake(*a_ptr, self.now());
  });
  a_ptr = &a;
  b_ptr = &b;
  try {
    engine.run();
    FAIL() << "deadlock not detected";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("A"), std::string::npos);
    EXPECT_NE(what.find("B"), std::string::npos);
  }
}

TEST(Sim, ExceptionInProcessPropagates) {
  SimEngine engine;
  engine.spawn("boom", [](Process& self) {
    self.advance(1.0);
    common::fail("exploded");
  });
  engine.spawn("bystander", [](Process& self) { self.advance(100.0); });
  try {
    engine.run();
    FAIL() << "exception not propagated";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
}

TEST(Sim, RunTwiceThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_THROW(engine.run(), common::Error);
}

TEST(Sim, SpawnAfterRunThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(1.0); });
  engine.run();
  EXPECT_THROW(engine.spawn("late", [](Process&) {}), common::Error);
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEngine engine;
    std::vector<double> times;
    for (int i = 0; i < 8; ++i) {
      engine.spawn("p" + std::to_string(i), [&times, i](Process& self) {
        for (int k = 0; k < 20; ++k) {
          self.advance(0.1 * ((i * 7 + k) % 5 + 1));
        }
        times.push_back(self.now());
      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Sim, ManyProcessesStress) {
  SimEngine engine;
  int finished = 0;
  for (int i = 0; i < 64; ++i) {
    engine.spawn("p" + std::to_string(i), [&finished, i](Process& self) {
      for (int k = 0; k < 50; ++k) self.advance(0.001 * (i + 1));
      ++finished;
    });
  }
  engine.run();
  EXPECT_EQ(finished, 64);
}

TEST(Sim, DestructorCleansUpWithoutRun) {
  // Spawning processes and destroying the engine without run() must not
  // hang or crash (threads are killed at their first yield point).
  auto engine = std::make_unique<SimEngine>();
  engine->spawn("never-run", [](Process& self) { self.advance(1.0); });
  engine.reset();
  SUCCEED();
}

TEST(Sim, HeapDispatchMatchesLinearScanReference) {
  // A/B check of the scheduler's total order: the heap must dispatch in
  // exactly the (ready_time, ready_seq) order the old per-event linear
  // scan produced. The reference below IS that linear scan — spawn readies
  // every process at t=0 in spawn order, each advance re-readies at t+d
  // with the next global seq, min_element picks (time, seq).
  constexpr int kProcs = 12;
  constexpr int kSteps = 20;
  const auto delta = [](int id, int k) {
    return 0.5 * static_cast<double>((id * 7 + k * 3) % 5) + 0.25;
  };

  std::vector<std::pair<double, int>> expected;
  {
    struct Ev {
      double t;
      std::uint64_t seq;
      int id;
      int k;  // advances completed when this dispatch runs
    };
    std::vector<Ev> ready;
    std::uint64_t next_seq = 0;
    for (int i = 0; i < kProcs; ++i) ready.push_back({0.0, next_seq++, i, 0});
    while (!ready.empty()) {
      const auto it =
          std::min_element(ready.begin(), ready.end(), [](const Ev& a,
                                                          const Ev& b) {
            return a.t != b.t ? a.t < b.t : a.seq < b.seq;
          });
      const Ev e = *it;
      ready.erase(it);
      if (e.k > 0) expected.emplace_back(e.t, e.id);
      if (e.k < kSteps) {
        ready.push_back({e.t + delta(e.id, e.k), next_seq++, e.id, e.k + 1});
      }
    }
  }

  SimEngine engine;
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < kProcs; ++i) {
    engine.spawn("p" + std::to_string(i), [&log, delta, i](Process& self) {
      for (int k = 0; k < kSteps; ++k) {
        self.advance(delta(i, k));
        log.emplace_back(self.now(), i);
      }
    });
  }
  engine.run();
  EXPECT_EQ(log, expected);
}

TEST(Sim, WakeReordersWakeableSleeperAmongPeers) {
  // Decrease-key path: waking the LAST-spawned of three equal-deadline
  // sleepers to an earlier time must move it to the front of the dispatch
  // order, while the untouched two keep their FIFO tie-break at t=10.
  SimEngine engine;
  std::vector<std::string> log;
  std::vector<Process*> sleepers;
  for (int i = 0; i < 3; ++i) {
    sleepers.push_back(
        &engine.spawn("s" + std::to_string(i), [&log, i](Process& self) {
          self.wait_event_until(10.0);
          log.push_back("s" + std::to_string(i) + "@" +
                        std::to_string(static_cast<int>(self.now())));
        }));
  }
  engine.spawn("waker", [&](Process& self) {
    self.advance(1.0);
    self.engine().wake(*sleepers[2], 5.0);
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"s2@5", "s0@10", "s1@10"}));
}

TEST(Sim, TwoThousandDaemonsShutDownPromptly) {
  // Shutdown goes through the heap path: killing 2048 blocked daemons
  // after the single regular process finishes must be near-instant, both
  // via run() and via the destructor without run().
  const auto t0 = std::chrono::steady_clock::now();
  int cleaned = 0;
  {
    SimEngine engine;
    for (int i = 0; i < 2048; ++i) {
      engine.spawn(
          "d" + std::to_string(i),
          [&cleaned](Process& self) {
            struct Cleanup {
              int* c;
              ~Cleanup() { ++*c; }
            } guard{&cleaned};
            for (;;) self.wait_event();
          },
          /*daemon=*/true);
    }
    engine.spawn("w", [](Process& self) { self.advance(1.0); });
    engine.run();
  }
  EXPECT_EQ(cleaned, 2048);

  {
    auto engine = std::make_unique<SimEngine>();
    for (int i = 0; i < 2048; ++i) {
      engine->spawn(
          "d" + std::to_string(i),
          [](Process& self) {
            for (;;) self.wait_event();
          },
          /*daemon=*/true);
    }
    engine.reset();  // destructor kill path
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(wall, 20.0) << "daemon shutdown is not prompt";
}

// ---- switch contract ----------------------------------------------------------
// What every backend must keep per process across a switch. The fiber
// backend saves it by hand; the thread backend gets it from the OS thread.

std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  }
}

TEST(Sim, CaughtExceptionIsPerProcess) {
  // Both processes yield from inside a catch block, so their caught
  // exceptions are live at the same time; each must see only its own.
  SimEngine engine;
  std::vector<std::string> log;
  engine.spawn("a", [&](Process& self) {
    try {
      throw std::runtime_error("a");
    } catch (const std::runtime_error&) {
      self.advance(1.0);  // b throws and catches at t=0.5
      log.push_back("a current=" + what_of(std::current_exception()));
      try {
        throw;
      } catch (const std::runtime_error& e) {
        log.push_back(std::string("a rethrew=") + e.what());
      }
    }
  });
  engine.spawn("b", [&](Process& self) {
    self.advance(0.5);
    try {
      throw std::logic_error("b");
    } catch (const std::logic_error&) {
      self.advance(1.0);  // a resumes at t=1 while b's exception is live
      log.push_back("b current=" + what_of(std::current_exception()));
    }
    log.push_back("b uncaught=" + std::to_string(std::uncaught_exceptions()));
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a current=a", "a rethrew=a",
                                           "b current=b", "b uncaught=0"}));
  EXPECT_EQ(std::current_exception(), nullptr);
}

TEST(Sim, RoundingModeIsPerProcess) {
  // fesetround sets both the x87 control word (read back by fegetround)
  // and MXCSR (used by SSE arithmetic); the quotient checks the latter.
  const auto third = [] {
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
  };
  const double nearest = third();
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  SimEngine engine;
  std::vector<int> a_modes;
  std::vector<int> b_modes;
  std::vector<double> a_thirds;
  std::vector<double> b_thirds;
  engine.spawn("a", [&](Process& self) {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    for (int k = 0; k < 3; ++k) {
      self.advance(1.0);
      a_modes.push_back(std::fegetround());
      a_thirds.push_back(third());
    }
  });
  engine.spawn("b", [&](Process& self) {
    for (int k = 0; k < 3; ++k) {
      self.advance(0.5);
      b_modes.push_back(std::fegetround());
      b_thirds.push_back(third());
    }
  });
  engine.run();
  EXPECT_EQ(a_modes, std::vector<int>(3, FE_UPWARD));
  EXPECT_EQ(b_modes, std::vector<int>(3, FE_TONEAREST));
  ASSERT_EQ(a_thirds.size(), 3u);
  for (const double t : a_thirds) EXPECT_GT(t, nearest);
  EXPECT_EQ(b_thirds, std::vector<double>(3, nearest));
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // run()'s caller unaffected
}

[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) volatile unsigned char local[16] = {};
  local[0] = 1;
  return reinterpret_cast<std::uintptr_t>(&local[0]);
}

TEST(Sim, ProcessStackIsAlignedAtEntryAndAfterResume) {
  SimEngine engine;
  std::vector<std::uintptr_t> addresses;
  for (int i = 0; i < 2; ++i) {
    engine.spawn("p" + std::to_string(i), [&](Process& self) {
      addresses.push_back(aligned_local_address());
      self.advance(1.0);
      addresses.push_back(aligned_local_address());
      self.wait_event_until(2.0);
      addresses.push_back(aligned_local_address());
    });
  }
  engine.run();
  ASSERT_EQ(addresses.size(), 6u);
  for (const std::uintptr_t a : addresses) EXPECT_EQ(a % 16, 0u) << a;
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  pool.submit([] {}).get();
}

TEST(ThreadPool, ResolveThreadsPrecedence) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3);  // explicit wins
  ::setenv("DT_COMPUTE_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 7);
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2);  // explicit still wins
  ::unsetenv("DT_COMPUTE_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);  // hardware fallback
}

// ---- advance_compute --------------------------------------------------------

TEST(Sim, AdvanceComputeRunsClosureInline) {
  // compute_threads defaults to 1: the closure must run synchronously on
  // the simulated thread, exactly like work(); advance(t);.
  SimEngine engine;
  bool ran = false;
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(2.0, [&ran] { ran = true; });
    EXPECT_TRUE(ran);  // completed by the time advance_compute returns
    EXPECT_DOUBLE_EQ(self.now(), 2.0);
  });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(Sim, AdvanceComputeJoinsBeforeResuming) {
  SimEngine engine;
  engine.set_compute_threads(4);
  std::atomic<bool> closure_done{false};
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(1.0, [&closure_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      closure_done.store(true);
    });
    // Even though the virtual deadline is hit immediately (no competing
    // processes), the process must not resume before the closure finished.
    EXPECT_TRUE(closure_done.load());
  });
  engine.run();
  EXPECT_TRUE(closure_done.load());
}

TEST(Sim, AdvanceComputeEventOrderMatchesSequential) {
  // The virtual event order must be a pure function of virtual times:
  // identical regardless of compute_threads.
  auto run_once = [](int threads) {
    SimEngine engine;
    engine.set_compute_threads(threads);
    std::mutex mu;
    std::vector<std::string> log;
    for (int i = 0; i < 4; ++i) {
      engine.spawn("p" + std::to_string(i), [&, i](Process& self) {
        for (int k = 0; k < 5; ++k) {
          self.advance_compute(0.1 * (i + 1), [&, i, k] {
            // Busy work of host-dependent duration.
            volatile double x = 0.0;
            for (int j = 0; j < 1000 * ((i + k) % 3 + 1); ++j) x = x + j;
            (void)x;
          });
          std::lock_guard<std::mutex> lock(mu);
          log.push_back("p" + std::to_string(i) + "@" +
                        std::to_string(self.now()));
        }
      });
    }
    engine.run();
    return log;
  };
  const auto seq = run_once(1);
  const auto par = run_once(8);
  EXPECT_EQ(seq, par);
}

TEST(Sim, AdvanceComputePropagatesClosureException) {
  SimEngine engine;
  engine.set_compute_threads(2);
  engine.spawn("p", [&](Process& self) {
    self.advance_compute(1.0, [] { throw std::runtime_error("kernel died"); });
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Sim, AdvanceComputeRejectsBadArguments) {
  SimEngine engine;
  engine.spawn("p", [&](Process& self) {
    EXPECT_THROW(self.advance_compute(-1.0, [] {}), common::Error);
    EXPECT_THROW(self.advance_compute(1.0, nullptr), common::Error);
    self.advance(0.1);
  });
  engine.run();
}

TEST(Sim, SetComputeThreadsAfterRunThrows) {
  SimEngine engine;
  engine.spawn("p", [](Process& self) { self.advance(0.1); });
  engine.run();
  EXPECT_THROW(engine.set_compute_threads(4), common::Error);
}

}  // namespace
}  // namespace dt::runtime
