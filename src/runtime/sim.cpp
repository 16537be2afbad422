#include "runtime/sim.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/error.hpp"

#if DT_SIM_FIBERS
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>

// libstdc++/libc++abi keep the in-flight-exception bookkeeping in a
// per-OS-thread structure. All fibers of an engine share one OS thread, so
// this state is saved and restored at every context switch — otherwise an
// exception unwinding in one fiber (ProcessKilled through a destructor, a
// catch block that blocks in virtual time) would corrupt
// `std::uncaught_exceptions` and the caught-exception stack seen by the
// others. Mirror of the ABI struct; the
// layout is fixed by the Itanium C++ ABI.
namespace __cxxabiv1 {
struct __cxa_eh_globals {
  void* caughtExceptions;
  unsigned int uncaughtExceptions;
};
extern "C" __cxa_eh_globals* __cxa_get_globals() noexcept;
}  // namespace __cxxabiv1

// Fiber switch. dt_fiber_switch pushes the SysV callee-saved state — rbp,
// rbx, r12-r15, MXCSR and the x87 control word — onto the current stack,
// stores rsp in *save_sp, loads load_sp (a stack suspended the same way)
// and pops that state: a plain call that returns on the other fiber. No
// signal mask is touched, so unlike swapcontext it makes no syscall.
// It returns to an address its own call did not push, so it cannot run
// with hardware shadow stacks enabled (glibc leaves them off by default).
//
// dt_fiber_start is the return address of a fresh fiber's initial frame
// (see Process::Process): it calls r13(r12), i.e. fiber_entry(this), and
// marks the outermost frame for unwinders. fiber_entry never returns.
extern "C" {
void dt_fiber_switch(void** save_sp, void* load_sp);
void dt_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl dt_fiber_switch
  .hidden dt_fiber_switch
  .type dt_fiber_switch, @function
  .p2align 4
dt_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dt_fiber_switch, .-dt_fiber_switch

  .globl dt_fiber_start
  .hidden dt_fiber_start
  .type dt_fiber_start, @function
  .p2align 4
dt_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size dt_fiber_start, .-dt_fiber_start
  .popsection
)");
#endif

namespace dt::runtime {

#if DT_SIM_FIBERS
namespace {

std::size_t fiber_stack_bytes() {
  // Stacks are lazily committed by the kernel, so generous virtual sizing
  // costs only touched pages. DT_SIM_STACK_KB overrides (min 64 KiB).
  static const std::size_t bytes = [] {
    std::size_t kb = 256;
    if (const char* env = std::getenv("DT_SIM_STACK_KB")) {
      const long v = std::atol(env);
      if (v >= 64) kb = static_cast<std::size_t>(v);
    }
    return kb * 1024;
  }();
  return bytes;
}

void eh_save(detail::EhState& into) {
  std::memcpy(into.bytes, __cxxabiv1::__cxa_get_globals(),
              sizeof(__cxxabiv1::__cxa_eh_globals));
}

void eh_load(const detail::EhState& from) {
  std::memcpy(__cxxabiv1::__cxa_get_globals(), from.bytes,
              sizeof(__cxxabiv1::__cxa_eh_globals));
}

}  // namespace
#endif

// ---- Process ------------------------------------------------------------------

#if DT_SIM_FIBERS

Process::Process(SimEngine* engine, int id, std::string name,
                 std::function<void(Process&)> body, bool daemon)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  stack_bytes_ = fiber_stack_bytes() + page;
  stack_base_ = ::mmap(nullptr, stack_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  common::check(stack_base_ != MAP_FAILED,
                "SimEngine: cannot allocate a fiber stack");
  // Guard page at the low end: stacks grow downward, so a runaway frame
  // faults instead of silently scribbling over the neighbouring fiber.
  const bool guarded = ::mprotect(stack_base_, page, PROT_NONE) == 0;
  if (!guarded) {
    ::munmap(stack_base_, stack_bytes_);
    stack_base_ = nullptr;
  }
  common::check(guarded,
                "SimEngine: cannot install a fiber stack's guard page");
  // Initial frame, laid out as dt_fiber_switch leaves a suspended fiber
  // (lowest address first). The first switch in "returns" into
  // dt_fiber_start with r12 = this and r13 = fiber_entry. The frame ends
  // 16 bytes below the (page-aligned) stack top, so rsp is 16-byte aligned
  // at dt_fiber_start's call, as the SysV ABI requires. The FP control
  // state is the spawning thread's, as a new std::thread would inherit.
  std::uint16_t x87_cw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  const std::uint64_t frame[] = {
      x87_cw,
      mxcsr,
      0,                                                        // r15
      0,                                                        // r14
      reinterpret_cast<std::uint64_t>(&Process::fiber_entry),  // r13
      reinterpret_cast<std::uint64_t>(this),                   // r12
      0,                                                        // rbx
      0,                                                        // rbp
      reinterpret_cast<std::uint64_t>(&dt_fiber_start),        // return
  };
  sp_ = static_cast<char*>(stack_base_) + stack_bytes_ - 16 - sizeof frame;
  std::memcpy(sp_, frame, sizeof frame);
}

Process::~Process() {
  if (stack_base_ != nullptr) ::munmap(stack_base_, stack_bytes_);
}

#else  // !DT_SIM_FIBERS

Process::Process(SimEngine* engine, int id, std::string name,
                 std::function<void(Process&)> body, bool daemon)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
  thread_ = std::thread([this] {
    {
      std::unique_lock<std::mutex> lock(engine_->mu_);
      cv_.wait(lock, [this] { return engine_->running_ == this; });
    }
    context_main();
  });
}

Process::~Process() = default;

#endif  // DT_SIM_FIBERS

void Process::context_main() {
  {
    SimEngine::SchedLock lock(engine_->mu_);
    if (kill_requested_) {
      // Killed before ever running (engine torn down without run()).
      finish_locked();
      return;
    }
    state_ = State::running;
  }
  try {
    body_(*this);
  } catch (const ProcessKilled&) {
    // normal daemon shutdown
  } catch (...) {
    failure_ = std::current_exception();
  }
  SimEngine::SchedLock lock(engine_->mu_);
  finish_locked();
}

void Process::finish_locked() {
  state_ = State::done;
  if (!daemon_) --engine_->live_regular_;
  if (failure_ && engine_->failed_ == nullptr) engine_->failed_ = this;
  engine_->transfer_from_finished(*this, engine_->pick_handoff_locked());
}

void Process::advance(double seconds) {
  common::check(seconds >= 0.0, "Process::advance: negative duration");
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::advance called from outside the process");
  state_ = State::ready;
  ready_time_ = engine_->now_ + seconds;
  ready_seq_ = ++engine_->seq_counter_;
  wakeable_ = false;
  engine_->heap_push_locked(*this);
  if (!engine_->try_self_resume_locked(*this)) {
    engine_->suspend(lock, *this, engine_->pick_handoff_locked());
    wakeable_ = false;
  }
  state_ = State::running;
  if (kill_requested_) {
    // If the stack is already unwinding (a destructor yielded while
    // ProcessKilled propagates), throwing again would terminate; let the
    // unwind continue instead.
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

void Process::advance_compute(double seconds, std::function<void()> work) {
  common::check(seconds >= 0.0, "Process::advance_compute: negative duration");
  common::check(work != nullptr, "Process::advance_compute: null closure");
  ThreadPool* pool = engine_->compute_pool_or_null();
  if (pool == nullptr) {
    // Sequential mode: today's behavior, bit for bit.
    work();
    advance(seconds);
    return;
  }
  std::future<void> done = pool->submit(std::move(work));
  try {
    advance(seconds);
  } catch (...) {
    // The closure references caller-owned state; it must finish before the
    // stack unwinds (e.g. ProcessKilled during engine shutdown).
    done.wait();
    throw;
  }
  done.get();  // joins the closure; rethrows its failure, if any
}

void Process::wait_event() {
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::wait_event called from outside the process");
  state_ = State::blocked;
  wakeable_ = true;
  engine_->suspend(lock, *this, engine_->pick_handoff_locked());
  wakeable_ = false;
  state_ = State::running;
  if (kill_requested_) {
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

void Process::wait_event_until(double at) {
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::wait_event_until called from outside the process");
  state_ = State::ready;
  ready_time_ = std::max(at, engine_->now_);
  ready_seq_ = ++engine_->seq_counter_;
  wakeable_ = true;
  engine_->heap_push_locked(*this);
  if (!engine_->try_self_resume_locked(*this)) {
    engine_->suspend(lock, *this, engine_->pick_handoff_locked());
  }
  wakeable_ = false;
  state_ = State::running;
  if (kill_requested_) {
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

void Process::resume_at(double time, std::uint64_t seq) {
  SimEngine::SchedLock lock(engine_->mu_);
  common::check(engine_->running_ == this,
                "Process::resume_at called from outside the process");
  common::check(time >= engine_->now_, "Process::resume_at: key in the past");
  state_ = State::ready;
  ready_time_ = time;
  ready_seq_ = seq;
  wakeable_ = false;
  engine_->heap_push_locked(*this);
  if (!engine_->try_self_resume_locked(*this)) {
    engine_->suspend(lock, *this, engine_->pick_handoff_locked());
  }
  state_ = State::running;
  if (kill_requested_) {
    if (std::uncaught_exceptions() == 0) throw ProcessKilled{};
  }
}

double Process::now() const noexcept { return engine_->now_; }

#if DT_SIM_FIBERS
void Process::fiber_entry(Process* self) { self->context_main(); }
#endif

// ---- SimEngine ------------------------------------------------------------------

SimEngine::~SimEngine() {
  // Unblock every process that never finished (e.g. when run() threw or was
  // never called), letting ProcessKilled unwind their stacks.
  SchedLock lock(mu_);
  shutdown_ = true;
  for (auto& p : processes_) {
    p->kill_requested_ = true;
    while (p->state_ != Process::State::done) {
      resume_locked(lock, *p);
    }
  }
  lock.unlock();
#if !DT_SIM_FIBERS
  for (auto& p : processes_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
#endif
}

Process& SimEngine::spawn(std::string name, std::function<void(Process&)> body,
                          bool daemon) {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::spawn after run() started");
  auto proc = std::unique_ptr<Process>(new Process(
      this, static_cast<int>(processes_.size()), std::move(name),
      std::move(body), daemon));
  proc->state_ = Process::State::ready;
  proc->ready_time_ = 0.0;
  proc->ready_seq_ = ++seq_counter_;
  processes_.push_back(std::move(proc));
  Process& ref = *processes_.back();
  heap_push_locked(ref);
  if (!daemon) ++live_regular_;
  ++stats_.processes;
  return ref;
}

// ---- ready heap -----------------------------------------------------------------

bool SimEngine::heap_before(const Process& a, const Process& b) noexcept {
  return a.ready_time_ < b.ready_time_ ||
         (a.ready_time_ == b.ready_time_ && a.ready_seq_ < b.ready_seq_);
}

void SimEngine::heap_sift_up_locked(std::size_t i) {
  Process* const p = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(*p, *heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_[i]->heap_index_ = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = p;
  p->heap_index_ = static_cast<int>(i);
}

void SimEngine::heap_sift_down_locked(std::size_t i) {
  Process* const p = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(*heap_[child + 1], *heap_[child])) {
      ++child;
    }
    if (!heap_before(*heap_[child], *p)) break;
    heap_[i] = heap_[child];
    heap_[i]->heap_index_ = static_cast<int>(i);
    i = child;
  }
  heap_[i] = p;
  p->heap_index_ = static_cast<int>(i);
}

void SimEngine::heap_push_locked(Process& p) {
  p.heap_index_ = static_cast<int>(heap_.size());
  heap_.push_back(&p);
  heap_sift_up_locked(heap_.size() - 1);
}

Process* SimEngine::heap_pop_min_locked() {
  Process* const top = heap_.front();
  top->heap_index_ = -1;
  Process* const last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    last->heap_index_ = 0;
    heap_sift_down_locked(0);
  }
  return top;
}

void SimEngine::heap_remove_locked(Process& p) {
  const auto i = static_cast<std::size_t>(p.heap_index_);
  p.heap_index_ = -1;
  Process* const last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    heap_[i] = last;
    last->heap_index_ = static_cast<int>(i);
    heap_sift_down_locked(i);
    heap_sift_up_locked(static_cast<std::size_t>(last->heap_index_));
  }
}

// ---- dispatch -------------------------------------------------------------------

Process* SimEngine::pop_next_locked() {
  stats_.peak_ready =
      std::max(stats_.peak_ready, static_cast<std::uint64_t>(heap_.size()));
  if (heap_.empty()) return nullptr;
  return heap_pop_min_locked();
}

Process* SimEngine::pick_handoff_locked() {
  // Stop conditions return the baton to the engine context (run()'s loop, a
  // kill driver, or the destructor); otherwise it goes straight to the next
  // ready process and the engine context stays suspended.
  if (shutdown_ || failed_ != nullptr || live_regular_ == 0 ||
      heap_.empty()) {
    running_ = nullptr;
    return nullptr;
  }
  Process* const next = pop_next_locked();
  now_ = std::max(now_, next->ready_time_);
  ++stats_.events;
  running_ = next;
  return next;
}

bool SimEngine::try_self_resume_locked(Process& p) {
  // `p` was just pushed, so the heap is non-empty. The root is the true
  // earliest event (seqs are unique, the order is total), so continuing to
  // run `p` is exactly what a full yield-and-pick would have chosen.
  if (shutdown_ || heap_.front() != &p) return false;
  stats_.peak_ready =
      std::max(stats_.peak_ready, static_cast<std::uint64_t>(heap_.size()));
  heap_pop_min_locked();
  now_ = std::max(now_, p.ready_time_);
  ++stats_.events;
  return true;
}

#if DT_SIM_FIBERS

void SimEngine::suspend(SchedLock&, Process& from, Process* to) {
  eh_save(from.eh_state_);
  eh_load(to != nullptr ? to->eh_state_ : sched_eh_state_);
  dt_fiber_switch(&from.sp_, to != nullptr ? to->sp_ : sched_sp_);
  // Resumed: whoever switched here restored our eh_state_ first.
}

void SimEngine::dispatch(SchedLock&, Process& to) {
  eh_save(sched_eh_state_);
  eh_load(to.eh_state_);
  dt_fiber_switch(&sched_sp_, to.sp_);
  // Control only returns here once some process set running_ = nullptr.
}

void SimEngine::transfer_from_finished(Process& from, Process* to) {
  eh_save(from.eh_state_);  // discarded; keeps the switch protocol uniform
  eh_load(to != nullptr ? to->eh_state_ : sched_eh_state_);
  dt_fiber_switch(&from.sp_, to != nullptr ? to->sp_ : sched_sp_);
  // Never reached: a done process is not resumed.
}

#else  // !DT_SIM_FIBERS

void SimEngine::suspend(SchedLock& lock, Process& from, Process* to) {
  if (to != nullptr) {
    to->cv_.notify_one();
  } else {
    engine_cv_.notify_one();
  }
  from.cv_.wait(lock, [this, &from] { return running_ == &from; });
}

void SimEngine::dispatch(SchedLock& lock, Process& to) {
  to.cv_.notify_one();
  engine_cv_.wait(lock, [this] { return running_ == nullptr; });
}

void SimEngine::transfer_from_finished(Process&, Process* to) {
  if (to != nullptr) {
    to->cv_.notify_one();
  } else {
    engine_cv_.notify_one();
  }
}

#endif  // DT_SIM_FIBERS

void SimEngine::resume_locked(SchedLock& lock, Process& p) {
  ++stats_.events;
  if (p.heap_index_ >= 0) heap_remove_locked(p);
  running_ = &p;
  dispatch(lock, p);
}

void SimEngine::kill_daemons_locked(SchedLock& lock) {
  shutdown_ = true;  // yields now return the baton to this driver
  for (auto& p : processes_) {
    if (p->state_ == Process::State::done) continue;
    p->kill_requested_ = true;
    // A killed process may pass through several yield points while its
    // destructors run; drive it until completion.
    while (p->state_ != Process::State::done) {
      resume_locked(lock, *p);
    }
  }
}

void SimEngine::run() {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::run called twice");
  started_ = true;

  std::exception_ptr failure;
  for (;;) {
    if (failed_ != nullptr) {
      failure = failed_->failure_;
      break;
    }
    if (live_regular_ == 0) break;  // only daemons left: normal end
    Process* const next = pop_next_locked();
    if (next == nullptr) {
      std::ostringstream blocked_names;
      for (auto& p : processes_) {
        if (p->state_ == Process::State::done || p->daemon_) continue;
        blocked_names << ' ' << p->name_;
      }
      kill_daemons_locked(lock);
      lock.unlock();
      common::fail("SimEngine: deadlock — blocked processes:" +
                   blocked_names.str());
    }
    now_ = std::max(now_, next->ready_time_);
    ++stats_.events;
    running_ = next;
    // Processes hand off among themselves; the engine context regains the
    // baton only when a stop condition held at some yield point.
    dispatch(lock, *next);
  }

  kill_daemons_locked(lock);
  lock.unlock();
#if !DT_SIM_FIBERS
  for (auto& p : processes_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
#endif
  if (!failure) {
    // A process other than the failure latch's pick may have failed during
    // shutdown unwinding; surface the first in spawn order.
    for (auto& p : processes_) {
      if (p->failure_) {
        failure = p->failure_;
        break;
      }
    }
  }
  if (failure) std::rethrow_exception(failure);
}

void SimEngine::set_compute_threads(int threads) {
  SchedLock lock(mu_);
  common::check(!started_, "SimEngine::set_compute_threads after run()");
  compute_threads_ = std::max(1, threads);
}

ThreadPool* SimEngine::compute_pool_or_null() {
  if (compute_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(compute_threads_);
  return pool_.get();
}

void SimEngine::wake_at(Process& p, double time, std::uint64_t seq) {
  SchedLock lock(mu_);
  common::check(running_ != nullptr && running_ != &p,
                "SimEngine::wake_at needs a running caller and a parked target");
  common::check(p.state_ == Process::State::blocked ||
                    p.state_ == Process::State::ready,
                "SimEngine::wake_at: target is neither blocked nor ready");
  if (p.heap_index_ >= 0) heap_remove_locked(p);
  p.state_ = Process::State::ready;
  p.ready_time_ = time;
  p.ready_seq_ = seq;
  p.wakeable_ = false;
  heap_push_locked(p);
}

void SimEngine::wake(Process& p, double at) {
  SchedLock lock(mu_);
  common::check(running_ != nullptr, "SimEngine::wake from outside a process");
  ++stats_.wakes;
  const double at_clamped = std::max(at, now_);
  if (p.state_ == Process::State::blocked) {
    p.state_ = Process::State::ready;
    p.ready_time_ = at_clamped;
    p.ready_seq_ = ++seq_counter_;
    heap_push_locked(p);
  } else if (p.state_ == Process::State::ready && p.wakeable_) {
    if (at_clamped < p.ready_time_) {
      // Decrease-key: the new (time, seq) is strictly smaller in time, so
      // the entry can only move toward the root.
      p.ready_time_ = at_clamped;
      p.ready_seq_ = ++seq_counter_;
      heap_sift_up_locked(static_cast<std::size_t>(p.heap_index_));
    }
  }
  // Running/done/non-wakeable-ready processes are left untouched: the
  // payload sits in its queue and is observed at the next scan.
}

}  // namespace dt::runtime
