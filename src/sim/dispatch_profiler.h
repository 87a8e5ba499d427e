// In-sim cost profiler: where do the ~11M events/s go?
//
// A DispatchProfiler, installed via Simulator::set_profiler(), is tapped
// once per dispatched event with the event's dynamic type and the cycle
// count its fire() consumed. It answers "which event class dominates the
// run" ahead of any hot-path work — per-type dispatch counts and cycle
// attribution, exported into the run manifest.
//
// Cost model: like BudgetEnforcer, installation is opt-in; the profiler
// tap is one feature bit of the simulator's dispatch loop, so without a
// profiler the loop carries no tap at all. The per-event tap is a
// fixed-capacity open-addressing probe keyed by the event's type_info
// address — pure stores, no allocation, no throwing —
// so the tap is legal on the dispatch path and its HB_EFFECTS contract is
// empty.
//
// Determinism: per-type dispatch *counts* are a pure function of the event
// stream and replay bit-identically. Cycle counts come from the CPU's raw
// cycle counter and are explicitly nondeterministic, like the manifest's
// wall_time_seconds — they attribute cost, they are not part of any golden
// output. Installing a profiler never perturbs the simulation (it only
// observes), so trace hashes stay bit-identical.
//
// Cycle attribution is *sampled*: reading the cycle counter twice per
// event costs more than the dispatch itself (rdtsc serializes), so only
// every kSamplePeriod-th dispatch is timed. Which dispatches are sampled
// is a function of the dispatch index alone — deterministic given the
// event stream — and counts are still exact for every dispatch. Cycle
// columns are therefore ~1/kSamplePeriod of the true totals; their
// *shares* are what the manifest reports them for.
#pragma once

#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "sim/annotations.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace halfback::sim {

/// Raw monotonic cycle stamp for cost attribution. Deliberately not a
/// wall clock (wall clocks are banned in src/ — lint rule
/// `nondeterminism`): the value feeds only the profiler's cycle columns,
/// which are documented as nondeterministic, never simulation state.
inline std::uint64_t read_cycle_counter() HB_EFFECTS() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v = 0;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;
#endif
}

/// Per-event-type dispatch counter and cycle-attribution table.
class DispatchProfiler {
 public:
  /// Fixed table size; must be a power of two. A run has a handful of
  /// event classes (timers, TX-done, arrivals) — 256 slots is far past any
  /// real population; overflow lands in an aggregate bucket.
  static constexpr std::size_t kSlots = 256;

  /// Cycle-sampling period; must be a power of two. Dispatch i is timed
  /// iff i % kSamplePeriod == 0, so sampling is deterministic in the
  /// dispatch index and the unsampled path never reads the cycle counter.
  static constexpr std::uint64_t kSamplePeriod = 64;

  /// Export-time view of one event class.
  struct Row {
    std::string type_name;      ///< demangled event class name
    std::uint64_t count = 0;    ///< dispatches (deterministic)
    std::uint64_t cycles = 0;   ///< attributed cycles (nondeterministic)
  };

  DispatchProfiler() { slots_.resize(kSlots); }

  /// True when the *next* note_dispatch() falls on a sampling tick: the
  /// dispatch loop brackets fire() with cycle-counter reads only then.
  bool should_sample() const HB_EFFECTS() {
    return (total_ & (kSamplePeriod - 1)) == 0;
  }

  /// Per-dispatch tap: attribute one fire() of `type`; `cycles` is the
  /// measured cost on sampling ticks and 0 otherwise. Fixed-table probe,
  /// pure stores — safe on the dispatch path.
  void note_dispatch(const std::type_info& type,
                     std::uint64_t cycles) HB_EFFECTS() {
    ++total_;
    // Event streams run the same type for long stretches (timer storms,
    // packet trains); one pointer compare beats the hash+probe then.
    if (&type == last_key_) {
      ++last_slot_->count;
      last_slot_->cycles += cycles;
      return;
    }
    std::size_t i =
        (reinterpret_cast<std::uintptr_t>(&type) >> 4) & (kSlots - 1);
    for (std::size_t probes = 0; probes < kSlots; ++probes) {
      Slot& s = slots_[i];
      if (s.key == &type) {
        ++s.count;
        s.cycles += cycles;
        last_key_ = &type;
        last_slot_ = &s;
        return;
      }
      if (s.key == nullptr) {
        s.key = &type;
        s.count = 1;
        s.cycles = cycles;
        last_key_ = &type;
        last_slot_ = &s;
        return;
      }
      i = (i + 1) & (kSlots - 1);
    }
    ++overflow_count_;
    overflow_cycles_ += cycles;
  }

  /// Total dispatches attributed (deterministic).
  std::uint64_t total_dispatches() const { return total_; }

  /// Export the table, demangled and deterministically ordered (count
  /// descending, then name). Overflowed classes aggregate into one
  /// "(other)" row. Export path only.
  std::vector<Row> rows() const HB_EFFECTS(alloc, throw);

 private:
  struct Slot {
    const std::type_info* key = nullptr;
    std::uint64_t count = 0;
    std::uint64_t cycles = 0;
  };

  std::vector<Slot> slots_;
  const std::type_info* last_key_ = nullptr;  ///< memo of the hot slot
  Slot* last_slot_ = nullptr;                 ///< (slots_ never reallocates)
  std::uint64_t total_ = 0;
  std::uint64_t overflow_count_ = 0;
  std::uint64_t overflow_cycles_ = 0;
};

}  // namespace halfback::sim
