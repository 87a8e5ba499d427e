// FlightRecorder / Tape semantics: slab-backed rings, wrap-around keeping
// the newest events, and the plain-text rendering.
#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/time.h"

namespace halfback::telemetry {
namespace {

sim::Time us(std::int64_t n) { return sim::Time::microseconds(n); }

TEST(FlightRecorder, TapeCreatedOnFirstUseAndFound) {
  FlightRecorder recorder;
  EXPECT_EQ(recorder.find(TrackKind::flow, 7), nullptr);
  Tape& tape = recorder.tape(TrackKind::flow, 7, "flow 7");
  EXPECT_EQ(recorder.find(TrackKind::flow, 7), &tape);
  EXPECT_EQ(recorder.tape_count(), 1u);
  EXPECT_EQ(tape.label(), "flow 7");
  EXPECT_EQ(tape.track(), TrackKind::flow);
  EXPECT_EQ(tape.id(), 7u);
  // Same id under a different track is a different tape.
  Tape& link = recorder.tape(TrackKind::link, 7, "link 7");
  EXPECT_NE(&link, &tape);
  EXPECT_EQ(recorder.tape_count(), 2u);
}

TEST(FlightRecorder, LabelAppliesOnlyAtCreation) {
  FlightRecorder recorder;
  recorder.tape(TrackKind::flow, 1, "original");
  Tape& again = recorder.tape(TrackKind::flow, 1, "ignored");
  EXPECT_EQ(again.label(), "original");
}

TEST(FlightRecorder, EventsReadBackOldestFirst) {
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  tape.record(us(10), TapeEventKind::flow_start);
  tape.record(us(20), TapeEventKind::segment_sent, 1);
  tape.record(us(30), TapeEventKind::segment_sent, 2);
  ASSERT_EQ(tape.size(), 3u);
  EXPECT_EQ(tape.dropped(), 0u);
  EXPECT_EQ(tape.event(0).kind, TapeEventKind::flow_start);
  EXPECT_EQ(tape.event(1).a, 1u);
  EXPECT_EQ(tape.event(2).a, 2u);
  EXPECT_EQ(tape.event(2).at, us(30));
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsDropped) {
  constexpr std::size_t kRing = kEventsPerTape;
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  for (std::uint32_t i = 0; i < kRing + 6; ++i) {
    tape.record(us(i), TapeEventKind::segment_sent, i);
  }
  EXPECT_EQ(tape.size(), kRing);
  EXPECT_EQ(tape.dropped(), 6u);
  // Survivors are the newest kRing, oldest first.
  for (std::size_t i = 0; i < kRing; ++i) {
    EXPECT_EQ(tape.event(i).a, 6u + i);
  }
}

TEST(FlightRecorder, PhaseEnterMirrorsIntoTheRing) {
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  tape.enter_phase(us(3), FlowPhase::ropr);
  ASSERT_EQ(tape.size(), 1u);
  EXPECT_EQ(tape.event(0).kind, TapeEventKind::phase_enter);
  EXPECT_EQ(tape.event(0).a, static_cast<std::uint32_t>(FlowPhase::ropr));
}

TEST(FlightRecorder, ManyTapesSpanSlabsWithStableContents) {
  // More than two slabs' worth of tapes forces several slab allocations;
  // every ring must stay distinct and addressable afterwards.
  FlightRecorder recorder;
  constexpr std::uint64_t kTapes = 2 * FlightRecorder::kTapesPerSlab + 5;
  for (std::uint64_t id = 0; id < kTapes; ++id) {
    Tape& tape = recorder.tape(TrackKind::flow, id);
    tape.record(us(static_cast<std::int64_t>(id)), TapeEventKind::flow_start,
                static_cast<std::uint32_t>(id));
  }
  ASSERT_EQ(recorder.tape_count(), kTapes);
  for (std::uint64_t id = 0; id < kTapes; ++id) {
    const Tape* tape = recorder.find(TrackKind::flow, id);
    ASSERT_NE(tape, nullptr);
    ASSERT_EQ(tape->size(), 1u);
    EXPECT_EQ(tape->event(0).a, id);
    // Creation order is export order.
    EXPECT_EQ(&recorder.tape_at(id), tape);
  }
}

TEST(FlightRecorder, EnumNamesAreStable) {
  // Exporters serialize these strings; renaming breaks trace consumers.
  EXPECT_STREQ(to_string(FlowPhase::handshake), "handshake");
  EXPECT_STREQ(to_string(FlowPhase::pacing), "pacing");
  EXPECT_STREQ(to_string(FlowPhase::ropr), "ropr");
  EXPECT_STREQ(to_string(TapeEventKind::proactive_sent), "proactive_sent");
  EXPECT_STREQ(to_string(TapeEventKind::karn_discard), "karn_discard");
}

TEST(FlightRecorder, RenderTapePrintsOneLinePerEventWithItsPayload) {
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::flow, 1, "halfback flow 1");
  tape.record(us(0), TapeEventKind::flow_start, 0, 14'480);
  tape.record(us(1'500), TapeEventKind::segment_sent, 8);
  tape.record(us(61'000), TapeEventKind::ack_received, 5);
  tape.record(us(61'000), TapeEventKind::proactive_sent, 9);
  tape.record(us(90'000), TapeEventKind::complete, 0, 90'000'000);
  EXPECT_EQ(render_tape(tape),
            "halfback flow 1\n"
            "     0.000 ms  flow_start      14480 bytes\n"
            "     1.500 ms  segment_sent    seq 8\n"
            "    61.000 ms  ack_received    cum_ack 5\n"
            "    61.000 ms  proactive_sent  seq 9\n"
            "    90.000 ms  complete        fct 90.000 ms\n");
}

TEST(FlightRecorder, RenderTapeNotesOverwrittenEvents) {
  constexpr std::uint32_t kRing = kEventsPerTape;
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::link, 0, "link 0");
  for (std::uint32_t seq = 0; seq <= kRing; ++seq) {
    tape.record(us(seq), TapeEventKind::queue_drop, seq, 4);
  }
  const std::string out = render_tape(tape);
  EXPECT_EQ(out.rfind("link 0\n"
                      "  (1 older events overwritten)\n"
                      "     0.001 ms  queue_drop      flow 4 seq 1\n"
                      "     0.002 ms  queue_drop      flow 4 seq 2\n",
                      0),
            0u)
      << out;
  // The header, the overwrite note, then the newest kRing events.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), kRing + 2);
  EXPECT_TRUE(out.ends_with("queue_drop      flow 4 seq " +
                            std::to_string(kRing) + "\n"))
      << out;
}

}  // namespace
}  // namespace halfback::telemetry
