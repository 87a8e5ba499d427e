// Causal flow spans: where inside a flow the time went.
//
// A Span is one closed (or still-open) interval of simulated time in a
// flow's life — the whole flow, its handshake, the paced start, the blast
// phase, one ROPR repair episode, one RTO recovery episode — linked to its
// parent span so exporters can render the tree (nested Chrome B/E events)
// and `hbreport` can attribute tail latency to phases.
//
// The recorder follows the flight-recorder discipline: all storage is
// carved out at construction, the record path (open_span / close_span /
// abandon_span) is pure stores behind a null check, and overflow bumps a
// drop counter instead of growing. Installing a recorder never perturbs
// the simulation — no randomness, no scheduling, no wall clock — so the
// golden trace hashes stay bit-identical (tests/telemetry/hub_test.cpp).
//
// Determinism: span ids are assigned in open order, which is a pure
// function of the event stream; two same-seed runs produce byte-identical
// span logs.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::telemetry {

/// What a span covers. `flow` is the per-flow root; the rest are children.
enum class SpanKind : std::uint8_t {
  flow = 0,      ///< whole flow: start() to completion (or export end)
  handshake,     ///< SYN out to established
  pacing,        ///< paced-start phase
  blast,         ///< capacity-blast transfer phase
  ropr_repair,   ///< one ROPR proactive-repair episode
  fallback,      ///< post-abandon fallback phase
  rto_recovery,  ///< one RTO episode: timeout fire to the next advancing ACK
};

const char* to_string(SpanKind kind);

/// One recorded interval. `id` is 1-based (0 = invalid/none); `parent` is
/// the enclosing span's id or 0 for a root. A span still open at export
/// time keeps open = true; exporters clamp its end to the run end.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t flow = 0;    ///< owning flow uid
  SpanKind kind = SpanKind::flow;
  bool open = false;
  bool abandoned = false;    ///< ROPR episode ended by abandonment
  sim::Time begin;
  sim::Time end;
};

/// Fixed-capacity span store. One per Hub; each FlowTrack (track.h) opens
/// and closes its flow's spans here.
class SpanRecorder {
 public:
  /// Spans past this many are counted in dropped(), not recorded.
  static constexpr std::size_t kCapacity = 4096;

  SpanRecorder() : spans_(kCapacity) {}

  /// Open a span at `at`. Returns its id, or 0 when the store is full
  /// (counted in dropped()). Pure stores: the slot was preallocated.
  std::uint32_t open_span(std::uint64_t flow, SpanKind kind,
                          std::uint32_t parent, sim::Time at) HB_EFFECTS() {
    if (used_ == spans_.size()) {
      ++dropped_;
      return 0;
    }
    Span& s = spans_[used_];
    ++used_;
    s.id = static_cast<std::uint32_t>(used_);
    s.parent = parent;
    s.flow = flow;
    s.kind = kind;
    s.open = true;
    s.abandoned = false;
    s.begin = at;
    s.end = at;
    return s.id;
  }

  /// Close span `id` at `at`. Ignores 0 and already-closed ids, so callers
  /// can close unconditionally.
  void close_span(std::uint32_t id, sim::Time at) HB_EFFECTS() {
    if (id == 0 || id > used_) return;
    Span& s = spans_[id - 1];
    if (!s.open) return;
    s.open = false;
    s.end = at;
  }

  /// Flag span `id` as ended by abandonment (ROPR giving up to fallback).
  void abandon_span(std::uint32_t id) HB_EFFECTS() {
    if (id == 0 || id > used_) return;
    spans_[id - 1].abandoned = true;
  }

  std::size_t size() const { return used_; }
  const Span& at(std::size_t i) const { return spans_[i]; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace halfback::telemetry
