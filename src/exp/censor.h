// Deadline-censoring helpers for the access-path trial.
//
// run_access_trial (exp/planetlab.h), behind both PlanetLabEnv and
// HomeNetEnv, runs one watched short flow against a per-trial timeout. An
// unfinished flow is censored AT the deadline, so FCT means reflect the
// stall instead of silently dropping it or under-reporting with whatever
// instant the queue happened to drain at. tests/exp/env_test.cpp pins both
// environments to it.
#pragma once

#include <algorithm>
#include <functional>

#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/sender.h"

namespace halfback::exp {

/// Drive `simulator` until the watched flow completes, the event queue
/// drains, a slice ends stopped, or `deadline` passes. `sender` is
/// re-polled each slice (the flow may not exist yet — PlanetLab schedules
/// it after a cross-traffic head start) and may return nullptr until it
/// does. The stop-check piggybacks on completion via polling in 100 ms
/// slices, cheap relative to the packet events. A stopped slice (a tripped
/// budget, or stop()) ends the drive: a tripped budget is sticky, so every
/// later slice would return at once with the clock unchanged. Returns true
/// if the flow reported complete.
inline bool drive_until_complete_or_deadline(
    sim::Simulator& simulator,
    const std::function<const transport::SenderBase*()>& sender,
    sim::Time deadline) {
  while (simulator.now() < deadline) {
    simulator.run_until(
        std::min(deadline, simulator.now() + sim::Time::milliseconds(100)));
    const transport::SenderBase* watched = sender();
    if (watched != nullptr && watched->complete()) return true;
    if (simulator.queue().empty() || simulator.stopped()) break;
  }
  const transport::SenderBase* watched = sender();
  return watched != nullptr && watched->complete();
}

/// The shared censor-at-deadline accounting for an unfinished trial:
/// the flow is charged the full deadline, so means reflect the stall.
inline void censor_record_at(transport::FlowRecord& record, sim::Time deadline) {
  record.completion_time = deadline;
  record.completed = false;
}

}  // namespace halfback::exp
