// Reusable one-shot timer over the intrusive event core.
//
// lint: hot-path — arming/cancelling happen per packet; nothing here may
// allocate.
#pragma once

#include "sim/event_queue.h"
#include "sim/function_ref.h"
#include "sim/simulator.h"

namespace halfback::sim {

/// A timer a component embeds once and re-arms for its whole lifetime:
/// retransmission timers, pacers, probe ticks and samplers all use it
/// instead of the `Simulator::schedule` std::function shim. The callback
/// is a FunctionRef (two words, bound once, never allocating), and arming,
/// re-arming and cancelling are heap operations on the embedded event, so
/// nothing on the per-event path allocates.
///
/// A Timer is one-shot: it fires once per arming and must be re-armed from
/// the callback for periodic behaviour. Arming while pending replaces the
/// deadline (semantically cancel + schedule: the timer moves to the back of
/// the FIFO tie-break at its new time).
///
/// Lifetime: the callback's referent must outlive the timer's pending
/// window (in the sender pipeline the referent *is* the owning component,
/// so this holds by construction), and the owner must not outlive the
/// Simulator while the timer is pending. Destroying a pending Timer
/// cancels it.
class Timer final : public Event {
 public:
  Timer() = default;
  ~Timer() override { cancel(); }

  /// Attach the simulator and callback. Must be called exactly once,
  /// before the first schedule_after/schedule_at.
  void bind(Simulator& simulator, FunctionRef<void()> callback) {
    simulator_ = &simulator;
    callback_ = callback;
  }
  bool bound() const { return simulator_ != nullptr; }

  /// (Re)arm to fire after `delay` (>= 0) from now.
  void schedule_after(Time delay) HB_EFFECTS(alloc, throw) {
    simulator_->reschedule_event(delay, *this);
  }

  /// (Re)arm to fire at absolute time `at` (>= now).
  void schedule_at(Time at) HB_EFFECTS(alloc, throw) {
    simulator_->reschedule_event_at(at, *this);
  }

  /// Disarm; no-op if not pending. Safe to call from inside the callback.
  void cancel() {
    if (queued()) simulator_->cancel_event(*this);
  }

  /// True while armed and not yet fired.
  bool pending() const { return queued(); }

 private:
  // lint: fire-may-throw(runs an arbitrary user callback; throws must reach run()'s caller)
  void fire() override { callback_(); }

  Simulator* simulator_ = nullptr;
  FunctionRef<void()> callback_;
};

}  // namespace halfback::sim
