// Windowed time-series: tumbling sim-time windows of link and flow-class
// activity — queue depth, in-flight bytes, goodput, loss/retx/dup tallies —
// the dashboard input the end-of-run aggregates cannot provide.
//
// A WindowSeries owns a fixed array of tumbling windows, sized at
// construction: window i covers [i*width, (i+1)*width) of simulated time.
// The record path (the tally_* and raise_* calls) is pure stores into the
// preallocated slot for `at`; activity past the last window bumps a drop
// counter instead of growing, so instrumented components never allocate on
// the packet or ACK path.
//
// Determinism: window contents are a pure function of the event stream,
// so two same-seed runs export byte-identical series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::telemetry {

/// One tumbling window's tallies. Additive fields accumulate within the
/// window; *_peak fields are high-water marks.
struct WindowSample {
  std::uint64_t bytes = 0;          ///< delivered (link) / acked (flow) bytes
  std::uint64_t packets = 0;        ///< packets or segments sent/delivered
  std::uint64_t drops = 0;          ///< queue + fault drops
  std::uint64_t retx = 0;           ///< retransmitted segments
  std::uint64_t dups = 0;           ///< duplicate (non-advancing) ACKs
  std::uint64_t queue_peak = 0;     ///< high-water queue depth, packets
  std::uint64_t inflight_peak = 0;  ///< high-water in-flight bytes

  bool touched() const {
    return (bytes | packets | drops | retx | dups | queue_peak |
            inflight_peak) != 0;
  }
};

/// One named series of tumbling windows (per link or per flow class). The
/// Hub creates one per link and per scheme, and tracks (track.h) record
/// into them; exp::run_trace keeps its own per-flow series.
class WindowSeries {
 public:
  static constexpr std::size_t kDefaultMaxWindows = 4096;

  WindowSeries(std::string name, sim::Time width, std::size_t max_windows)
      : name_{std::move(name)},
        width_{width.ns() > 0 ? width : sim::Time::nanoseconds(1)} {
    windows_.resize(max_windows);
  }

  void tally_bytes(sim::Time at, std::uint64_t n) HB_EFFECTS() {
    if (WindowSample* w = window_slot(at)) w->bytes += n;
  }
  void tally_packets(sim::Time at, std::uint64_t n) HB_EFFECTS() {
    if (WindowSample* w = window_slot(at)) w->packets += n;
  }
  void tally_drop(sim::Time at) HB_EFFECTS() {
    if (WindowSample* w = window_slot(at)) ++w->drops;
  }
  void tally_retx(sim::Time at) HB_EFFECTS() {
    if (WindowSample* w = window_slot(at)) ++w->retx;
  }
  void tally_dup(sim::Time at) HB_EFFECTS() {
    if (WindowSample* w = window_slot(at)) ++w->dups;
  }
  void raise_queue_peak(sim::Time at, std::uint64_t depth) HB_EFFECTS() {
    WindowSample* w = window_slot(at);
    if (w != nullptr && depth > w->queue_peak) w->queue_peak = depth;
  }
  void raise_inflight_peak(sim::Time at, std::uint64_t bytes) HB_EFFECTS() {
    WindowSample* w = window_slot(at);
    if (w != nullptr && bytes > w->inflight_peak) w->inflight_peak = bytes;
  }

  const std::string& name() const { return name_; }
  sim::Time width() const { return width_; }
  /// Windows [0, window_count()) cover everything recorded; trailing
  /// untouched windows are not counted.
  std::size_t window_count() const { return used_; }
  const WindowSample& window(std::size_t i) const { return windows_[i]; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  WindowSample* window_slot(sim::Time at) HB_EFFECTS() {
    const std::int64_t ns = at.ns() < 0 ? 0 : at.ns();
    const std::size_t i = static_cast<std::size_t>(ns / width_.ns());
    if (i >= windows_.size()) {
      ++dropped_;
      return nullptr;
    }
    if (i + 1 > used_) used_ = i + 1;
    return &windows_[i];
  }

  std::string name_;
  sim::Time width_;
  std::vector<WindowSample> windows_;
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace halfback::telemetry
