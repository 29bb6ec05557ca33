// The per-run counter list.  Every counter that flows from the evaluation
// kernels up through platform::ExecutorStats, rt::DeviceStats and
// rt::PoolStats is named exactly once, in PP_RUN_COUNTERS below; the value
// struct (RunCounters), the kernels' live atomics (KernelCounters), the sum
// and the difference are all generated from that one list.  The stats
// structs of the upper layers inherit RunCounters, so every rollup is one
// `+=` and a new counter reaches the pool totals without touching them.
//
// Adding a counter: append it to PP_RUN_COUNTERS (or PP_KERNEL_COUNTERS
// when the kernels count it themselves) and increment it where it happens
// — sim/evaluator.cpp / sim/jit.cpp for kernel counters,
// platform/executor.cpp for executor counters.  The serving protocol's
// stats frame is a fixed struct and does not carry these counters.
#pragma once

#include <atomic>
#include <cstdint>

/// Counters the evaluation kernels increment themselves (relaxed atomics on
/// the program state shared by every clone of one compilation).
#define PP_KERNEL_COUNTERS(X)                                                 \
  X(fast_passes)       /* wide passes on the single-plane two-valued path */ \
  X(slow_passes)       /* wide passes that ran the full two-plane kernel */  \
  X(cycles_run)        /* clocked cycles, per pass group (512 lanes x 32   \
                          cycles counts 32) */                               \
  X(state_commits)     /* register captures committed at clock edges */     \
  X(fast_cycle_passes) /* clocked cycles that rode the single-plane path */

/// The whole per-run counter list: the kernel counters plus those the
/// batch executor derives per run.
#define PP_RUN_COUNTERS(X)                                                    \
  PP_KERNEL_COUNTERS(X)                                                       \
  X(jit_passes)     /* kernel passes (wide passes + clocked cycles) served   \
                       by JIT-generated native code */                       \
  X(jit_compiles)   /* JIT kernel builds that invoked the host compiler */   \
  X(jit_cache_hits) /* JIT kernel builds satisfied from the disk cache */    \
  X(jit_fallbacks)  /* runs that wanted the JIT (warm requested, kAuto) but \
                       were served by another engine */                      \
  X(vectors_run)    /* stimulus vectors evaluated by successful runs */

namespace pp::sim {

/// One value of every counter in PP_RUN_COUNTERS.  All counters are
/// monotone, so `after - before` is the slice of work in between.
struct RunCounters {
#define PP_COUNTER_FIELD(name) std::uint64_t name = 0;
  PP_RUN_COUNTERS(PP_COUNTER_FIELD)
#undef PP_COUNTER_FIELD

  /// Field-wise sum: the one rollup every layer uses.
  RunCounters& operator+=(const RunCounters& other) noexcept {
#define PP_COUNTER_ADD(name) name += other.name;
    PP_RUN_COUNTERS(PP_COUNTER_ADD)
#undef PP_COUNTER_ADD
    return *this;
  }

  /// Field-wise delta of two snapshots of monotone counters.
  friend RunCounters operator-(RunCounters after,
                               const RunCounters& before) noexcept {
#define PP_COUNTER_SUB(name) after.name -= before.name;
    PP_RUN_COUNTERS(PP_COUNTER_SUB)
#undef PP_COUNTER_SUB
    return after;
  }
};

/// Visit every counter of the list as `f(name, &RunCounters::member)` —
/// generic rollup checks and dumps need no per-counter code.
template <typename F>
constexpr void for_each_run_counter(F&& f) {
#define PP_COUNTER_VISIT(name) f(#name, &RunCounters::name);
  PP_RUN_COUNTERS(PP_COUNTER_VISIT)
#undef PP_COUNTER_VISIT
}

/// The kernels' live counters: relaxed atomics (pure statistics, one
/// increment per >=64-lane pass) shared by every clone of one compilation,
/// so sharded runs aggregate naturally.
struct KernelCounters {
#define PP_COUNTER_ATOMIC(name) std::atomic<std::uint64_t> name{0};
  PP_KERNEL_COUNTERS(PP_COUNTER_ATOMIC)
#undef PP_COUNTER_ATOMIC

  /// Point-in-time values (the non-kernel counters stay zero).
  [[nodiscard]] RunCounters snapshot() const noexcept {
    RunCounters out;
#define PP_COUNTER_LOAD(name) out.name = name.load(std::memory_order_relaxed);
    PP_KERNEL_COUNTERS(PP_COUNTER_LOAD)
#undef PP_COUNTER_LOAD
    return out;
  }

  /// Restart every counter at zero.
  void reset() noexcept {
#define PP_COUNTER_RESET(name) name.store(0, std::memory_order_relaxed);
    PP_KERNEL_COUNTERS(PP_COUNTER_RESET)
#undef PP_COUNTER_RESET
  }
};

}  // namespace pp::sim
