// Flow flight-recorder: always-on, bounded-memory event timelines.
//
// Each flow (and each instrumented link) gets a Tape: a fixed-capacity ring
// buffer of compact point events, phase changes included. Rings are carved
// out of slab allocations — creating a tape in steady state touches the
// allocator only when a slab fills — and recording an event is a handful
// of stores, so tapes can stay installed in production runs. render_tape()
// prints one tape as a plain-text timeline.
//
// When a ring wraps, the oldest point events are overwritten (a flight
// recorder keeps the newest history) and `dropped()` counts the loss. The
// complete phase intervals live in the span log (span.h), which the Chrome
// exporter draws.
//
// Everything here except the name tables and render_tape() is inline and
// depends only on sim/time.h: a track (track.h) records on its tape
// without the recording layers linking the telemetry library.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::telemetry {

/// Transport/scheme phases a flow moves through. `transfer` is the generic
/// data phase for schemes without finer structure.
enum class FlowPhase : std::uint8_t {
  handshake,
  pacing,
  transfer,
  ropr,
  fallback,
  done,
};

const char* to_string(FlowPhase phase);

/// Point events a tape records. `a`/`b` carry kind-specific detail
/// (sequence numbers, nanosecond durations, fault kinds — see
/// docs/telemetry.md for the catalog).
enum class TapeEventKind : std::uint8_t {
  flow_start,
  syn_sent,        ///< a = attempt number (1 = first)
  established,     ///< b = handshake RTT in ns
  phase_enter,     ///< a = FlowPhase
  segment_sent,    ///< a = seq
  retx_sent,       ///< a = seq (loss-triggered)
  proactive_sent,  ///< a = seq
  ack_received,    ///< a = cumulative ack
  rtt_sample,      ///< b = sample in ns
  karn_discard,    ///< a = seq (ambiguous echo, sample dropped)
  rto_fired,       ///< a = consecutive backoffs
  ropr_abandoned,  ///< a = backward position at abandonment
  rlp_abandoned,   ///< a = cum ack when RC3 stopped crediting its backfill
  fault_hit,       ///< a = fault kind (netfault cause), b = flow uid
  queue_drop,      ///< a = seq (link tapes: b = flow id)
  complete,        ///< b = FCT in ns
};

const char* to_string(TapeEventKind kind);

/// The `a` payload of a fault_hit event: what the fault hook did.
enum class FaultKind : std::uint8_t { drop, corrupt, delay, duplicate };

/// What a tape describes.
enum class TrackKind : std::uint8_t { flow, link };

/// Events one tape's ring holds. Every tape has this capacity; a power of
/// two keeps the ring index a mask.
inline constexpr std::size_t kEventsPerTape = 256;

/// One compact recorded event (24 bytes).
struct TapeEvent {
  sim::Time at;
  std::uint64_t b = 0;
  std::uint32_t a = 0;
  TapeEventKind kind = TapeEventKind::flow_start;
};

/// A ring of TapeEvents for one track.
class Tape {
 public:
  void record(sim::Time at, TapeEventKind kind, std::uint32_t a = 0,
              std::uint64_t b = 0) HB_EFFECTS() {
    TapeEvent& slot = ring_[head_ % kEventsPerTape];
    slot.at = at;
    slot.kind = kind;
    slot.a = a;
    slot.b = b;
    ++head_;
  }

  /// Record a phase transition as a phase_enter point event.
  void enter_phase(sim::Time at, FlowPhase phase) HB_EFFECTS() {
    record(at, TapeEventKind::phase_enter, static_cast<std::uint32_t>(phase));
  }

  TrackKind track() const { return track_; }
  std::uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  /// Events currently held, oldest first.
  std::size_t size() const {
    return head_ < kEventsPerTape ? head_ : kEventsPerTape;
  }
  /// Point events overwritten by ring wrap-around.
  std::uint64_t dropped() const {
    return head_ < kEventsPerTape ? 0 : head_ - kEventsPerTape;
  }
  const TapeEvent& event(std::size_t i) const {
    return ring_[(head_ - size() + i) % kEventsPerTape];
  }

 private:
  friend class FlightRecorder;

  Tape(TrackKind track, std::uint64_t id, std::string label, TapeEvent* ring)
      : track_{track}, id_{id}, label_{std::move(label)}, ring_{ring} {}

  TrackKind track_;
  std::uint64_t id_;
  std::string label_;
  TapeEvent* ring_;  ///< kEventsPerTape slots inside a FlightRecorder slab
  std::uint64_t head_ = 0;
};

/// Plain-text view of one tape: its label, then one line per held event,
/// oldest first — time, kind, and the kind's `a`/`b` payload in words.
/// The examples print a flow's timeline with it (the Fig. 3 walkthrough).
std::string render_tape(const Tape& tape);

/// Owns the tapes and their slab-allocated rings. Tape creation order is
/// the export order (deterministic for a seeded run).
class FlightRecorder {
 public:
  static constexpr std::size_t kTapesPerSlab = 64;  ///< rings per allocation

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The tape for (`track`, `id`), created on first use. `label` is applied
  /// only at creation (later calls may pass empty).
  Tape& tape(TrackKind track, std::uint64_t id, std::string label = {})
      HB_EFFECTS(alloc) {
    const Key key{static_cast<std::uint8_t>(track), id};
    auto it = index_.find(key);
    if (it != index_.end()) return tapes_[it->second];
    TapeEvent* ring = allocate_ring();
    tapes_.push_back(Tape{track, id, std::move(label), ring});
    index_.emplace(key, tapes_.size() - 1);
    return tapes_.back();
  }

  /// The tape for (`track`, `id`) if it exists, else nullptr.
  Tape* find(TrackKind track, std::uint64_t id) {
    const auto it = index_.find(Key{static_cast<std::uint8_t>(track), id});
    return it == index_.end() ? nullptr : &tapes_[it->second];
  }

  /// All tapes in creation order.
  std::size_t tape_count() const { return tapes_.size(); }
  const Tape& tape_at(std::size_t i) const { return tapes_[i]; }

 private:
  using Key = std::pair<std::uint8_t, std::uint64_t>;

  TapeEvent* allocate_ring() {
    if (slab_used_ == 0 || slab_used_ >= kTapesPerSlab) {
      slabs_.push_back(
          std::make_unique<TapeEvent[]>(kEventsPerTape * kTapesPerSlab));
      slab_used_ = 0;
    }
    TapeEvent* ring = slabs_.back().get() + slab_used_ * kEventsPerTape;
    ++slab_used_;
    return ring;
  }

  std::deque<Tape> tapes_;               ///< stable addresses, creation order
  std::map<Key, std::size_t> index_;     ///< ordered: no hash-order surprises
  std::vector<std::unique_ptr<TapeEvent[]>> slabs_;
  std::size_t slab_used_ = 0;
};

}  // namespace halfback::telemetry
