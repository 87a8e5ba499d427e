// Differential property test of EventQueue against a reference model.
//
// Each trial drives one queue with a seeded random mix of operations on
// intrusive events, Timers and shim callbacks: schedule (at the current
// time, just after it, or exactly at a pending event's time), reschedule
// earlier, later or to the same time (including ahead of the earliest
// event), cancel, destroy a queued Timer, clear(), and the same operations
// issued from inside fire(). The model is a plain map of pending events
// keyed by (time, seq). Every dispatch must be the model's minimum, and
// after every operation size(), empty(), next_time(), peek_next() and
// for_each_pending() must agree with it.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace halfback::sim {
namespace {

using namespace halfback::sim::literals;

/// Trial count, overridable via HALFBACK_FUZZ_ITERS so CI sanitizer jobs can
/// run a deeper sweep than the default local/developer run.
int fuzz_iterations(int fallback) {
  const char* env = std::getenv("HALFBACK_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : fallback;
}

constexpr int kProbes = 6;  // ids [0, 6): intrusive events
constexpr int kTimers = 3;  // ids [6, 9): sim::Timer
constexpr int kShims = 4;   // ids [9, 13): std::function shim events
constexpr int kStepsPerTrial = 300;

bool is_probe(int id) { return id < kProbes; }
bool is_timer(int id) { return id >= kProbes && id < kProbes + kTimers; }

class Harness;

/// An intrusive event that reports its dispatch to the harness.
class Probe final : public Event {
 public:
  Probe(Harness& harness, int id) : harness_{harness}, id_{id} {}

 private:
  void fire() override;

  Harness& harness_;
  int id_;
};

class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_{seed} {
    for (int id = 0; id < kProbes; ++id) {
      probes_[id] = std::make_unique<Probe>(*this, id);
    }
    for (int id = kProbes; id < kProbes + kTimers; ++id) {
      on_timer_[id - kProbes] = [this, id] { on_fire(id); };
      make_timer(id);
    }
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// One top-level operation: mostly dispatches, sometimes a clear().
  void step() {
    const std::int64_t roll = rng_.uniform_int(0, 99);
    if (roll < 40) {
      dispatch();
    } else if (roll < 41) {
      queue().clear();
      model_.clear();
      note("clear");
      verify();
    } else {
      mutate(/*firing=*/-1);
    }
  }

  /// Dispatch until the queue is empty.
  void drain() {
    while (!model_.empty() && !::testing::Test::HasFailure()) dispatch();
  }

  /// Dispatch callback of every event kind.
  void on_fire(int id) {
    EXPECT_EQ(id, expected_) << "dispatched event " << id << ", model's earliest is "
                             << expected_ << "\n" << log_;
    if (rng_.bernoulli(0.5)) mutate(id);
  }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    bool operator<(const Key& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  EventQueue& queue() { return simulator_.queue(); }

  void make_timer(int id) {
    timers_[id - kProbes] = std::make_unique<Timer>();
    timers_[id - kProbes]->bind(simulator_, on_timer_[id - kProbes]);
  }

  /// The event object behind `id` while it is pending.
  const Event* address(int id) const {
    if (is_probe(id)) return probes_[id].get();
    if (is_timer(id)) return timers_[id - kProbes].get();
    return shim_address_[id - kProbes - kTimers];
  }

  /// The model's earliest pending id. Requires a non-empty model.
  int earliest() const {
    auto best = model_.begin();
    for (auto it = model_.begin(); it != model_.end(); ++it) {
      if (it->second < best->second) best = it;
    }
    return best->first;
  }

  void enter(int id, Time at) {
    model_[id] = Key{at, next_seq_++};
  }

  void note(const std::string& op) { log_ += "  " + op + "\n"; }

  /// A deadline at or after now(): now itself, just after it, exactly a
  /// pending event's time, just before the earliest one, or anywhere close.
  Time pick_time() {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return now_;
      case 1:
        return now_ + Time::nanoseconds(rng_.uniform_int(1, 3));
      case 2:
        if (!model_.empty()) {
          const auto last = static_cast<std::int64_t>(model_.size()) - 1;
          return std::next(model_.begin(), rng_.uniform_int(0, last))->second.at;
        }
        break;
      case 3:
        if (!model_.empty() && model_.at(earliest()).at > now_) {
          return model_.at(earliest()).at - 1_ns;
        }
        break;
      default:
        break;
    }
    return now_ + Time::nanoseconds(rng_.uniform_int(0, 40));
  }

  /// A deadline for moving `id`: the same time, earlier, later, or any.
  Time pick_move(int id) {
    const auto it = model_.find(id);
    if (it == model_.end() || rng_.bernoulli(0.4)) return pick_time();
    const Time at = it->second.at;
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        return at;
      case 1:
        return at > now_ ? at - Time::nanoseconds(rng_.uniform_int(1, (at - now_).ns()))
                         : at;
      default:
        return at + Time::nanoseconds(rng_.uniform_int(1, 20));
    }
  }

  /// An id in [lo, lo + count), biased towards the earliest pending event
  /// so the front of the queue is exercised as often as the rest.
  int pick_id(int lo, int count) {
    if (!model_.empty() && rng_.bernoulli(0.3)) {
      const int first = earliest();
      if (first >= lo && first < lo + count) return first;
    }
    return lo + static_cast<int>(rng_.uniform_int(0, count - 1));
  }

  /// One schedule / reschedule / cancel / destroy operation. `firing` is the
  /// id whose fire() issues it, or -1 at top level.
  void mutate(int firing) {
    const std::int64_t roll = rng_.uniform_int(0, 9);
    if (roll < 4) {
      mutate_probe();
    } else if (roll < 7) {
      mutate_timer(firing);
    } else {
      mutate_shim();
    }
    verify();
  }

  void mutate_probe() {
    const int id = pick_id(0, kProbes);
    Probe& probe = *probes_[id];
    const Time at = pick_move(id);
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        if (model_.contains(id)) {
          EXPECT_THROW(queue().schedule_event(probe, at), std::logic_error);
        } else {
          queue().schedule_event(probe, at);
          enter(id, at);
        }
        note("schedule probe " + std::to_string(id) + " @" + std::to_string(at.ns()));
        break;
      case 1:
        queue().reschedule_event(probe, at);
        enter(id, at);
        note("reschedule probe " + std::to_string(id) + " @" + std::to_string(at.ns()));
        break;
      default:
        queue().cancel_event(probe);
        model_.erase(id);
        note("cancel probe " + std::to_string(id));
        break;
    }
  }

  void mutate_timer(int firing) {
    const int id = pick_id(kProbes, kTimers);
    Timer& timer = *timers_[id - kProbes];
    switch (rng_.uniform_int(0, 3)) {
      case 0:
      case 1: {
        const Time at = pick_move(id);
        timer.schedule_at(at);
        enter(id, at);
        note("arm timer " + std::to_string(id) + " @" + std::to_string(at.ns()));
        break;
      }
      case 2:
        timer.cancel();
        model_.erase(id);
        note("cancel timer " + std::to_string(id));
        break;
      default:
        // A timer must not destroy itself from its own callback.
        if (id == firing) break;
        make_timer(id);  // destroys the old timer, queued or not
        model_.erase(id);
        note("destroy timer " + std::to_string(id));
        break;
    }
  }

  void mutate_shim() {
    const int id = pick_id(kProbes + kTimers, kShims);
    const int slot = id - kProbes - kTimers;
    if (model_.contains(id) && rng_.bernoulli(0.5)) {
      handles_[slot].cancel();
      model_.erase(id);
      note("cancel shim " + std::to_string(id));
      return;
    }
    if (model_.contains(id)) {
      handles_[slot].cancel();
      model_.erase(id);
    }
    const Time at = pick_time();
    handles_[slot] = queue().schedule(at, [this, id] { on_fire(id); });
    enter(id, at);
    note("schedule shim " + std::to_string(id) + " @" + std::to_string(at.ns()));
    // The shim's node is internal to the queue: it is the one pending event
    // the model cannot name yet.
    shim_address_[slot] = nullptr;
    std::multiset<const Event*> unnamed;
    auto collect = [&](const Event& e) { unnamed.insert(&e); };
    queue().for_each_pending(collect);
    for (const auto& [other, key] : model_) {
      if (other != id) unnamed.erase(address(other));
    }
    ASSERT_EQ(unnamed.size(), 1U) << "cannot find the new shim event\n" << log_;
    shim_address_[slot] = *unnamed.begin();
  }

  void dispatch() {
    if (model_.empty()) {
      ASSERT_TRUE(queue().empty()) << log_;
      return;
    }
    expected_ = earliest();
    const Time at = model_.at(expected_).at;
    model_.erase(expected_);
    now_ = at;
    note("run_next, expect " + std::to_string(expected_));
    const Time ran = queue().run_next();
    EXPECT_EQ(ran, at) << log_;
    verify();
  }

  void verify() {
    ASSERT_EQ(queue().size(), model_.size()) << log_;
    ASSERT_EQ(queue().empty(), model_.empty()) << log_;
    std::multiset<const Event*> seen;
    auto collect = [&](const Event& e) { seen.insert(&e); };
    queue().for_each_pending(collect);
    std::multiset<const Event*> want;
    for (const auto& [id, key] : model_) want.insert(address(id));
    ASSERT_EQ(seen, want) << "for_each_pending visits the wrong set\n" << log_;
    for (int slot = 0; slot < kShims; ++slot) {
      const int id = kProbes + kTimers + slot;
      ASSERT_EQ(handles_[slot].pending(), model_.contains(id)) << log_;
    }
    if (model_.empty()) return;
    const int first = earliest();
    ASSERT_EQ(queue().next_time(), model_.at(first).at) << log_;
    ASSERT_EQ(&queue().peek_next(), address(first))
        << "peek_next is not the earliest event " << first << "\n" << log_;
  }

  Simulator simulator_;
  Random rng_;
  std::array<std::unique_ptr<Probe>, kProbes> probes_;
  std::array<std::function<void()>, kTimers> on_timer_;  ///< what each timer binds
  std::array<std::unique_ptr<Timer>, kTimers> timers_;
  std::array<EventHandle, kShims> handles_;
  std::array<const Event*, kShims> shim_address_{};

  std::map<int, Key> model_;  ///< pending ids
  std::uint64_t next_seq_ = 0;
  Time now_ = Time::zero();
  int expected_ = -1;  ///< the id the current dispatch must fire
  std::string log_;    ///< operations so far, printed on failure
};

void Probe::fire() { harness_.on_fire(id_); }

TEST(EventQueueProperty, DispatchOrderAndViewsMatchTheReferenceModel) {
  const int trials = fuzz_iterations(200);
  for (int trial = 0; trial < trials && !HasFailure(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Harness harness{static_cast<std::uint64_t>(trial) + 1};
    for (int i = 0; i < kStepsPerTrial && !HasFailure(); ++i) harness.step();
    harness.drain();
  }
}

}  // namespace
}  // namespace halfback::sim
