// Exporter contracts: byte-identical output across same-seed runs, golden
// histogram bucket edges, and the shape of each text format.
#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/emulab.h"
#include "telemetry/hub.h"
#include "telemetry/manifest.h"

namespace halfback::telemetry {
namespace {

using exp::EmulabRunner;
using exp::WorkloadPart;

/// What the write_* exporter `write` puts on a stream, given `args`.
template <class... Params, class... Args>
std::string text_of(void (*write)(std::ostream&, Params...), Args&&... args) {
  std::ostringstream out;
  write(out, std::forward<Args>(args)...);
  return out.str();
}

/// A small but non-trivial Emulab run with telemetry installed; returns the
/// serialized exporter outputs. Fresh hub + runner per call so two calls
/// share no state.
struct ExportedRun {
  std::string metrics;
  std::string trace;
  std::string spans;
  std::string manifest;
  std::string tapes;  ///< every tape's render_tape, in recorder order
  std::size_t tape_count = 0;
  std::uint64_t trace_hash = 0;
};

ExportedRun run_and_export() {
  Hub hub;
  EmulabRunner::Config config;
  config.seed = 11;
  config.dumbbell.sender_count = 2;
  config.dumbbell.receiver_count = 2;
  config.drain = sim::Time::seconds(10);
  config.telemetry = &hub;

  std::vector<WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 4; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{
        sim::Time::milliseconds(25.0 * i), /*bytes=*/40'000});
  }

  EmulabRunner runner{config};
  const exp::RunResult run = runner.run(parts);

  ExportedRun out;
  out.metrics = text_of(write_metrics_jsonl, hub.registry());
  out.trace = text_of(write_chrome_trace, hub, run.sim_end);
  out.spans = text_of(write_spans_jsonl, hub.spans(), run.sim_end);
  out.manifest = text_of(write_manifest_json, runner.manifest(run, "emulab"),
                         &hub.registry());
  for (std::size_t i = 0; i < hub.recorder().tape_count(); ++i) {
    out.tapes += render_tape(hub.recorder().tape_at(i));
  }
  out.tape_count = hub.recorder().tape_count();
  out.trace_hash = run.trace_hash;
  return out;
}

TEST(ExportDeterminism, SameSeedRunsAreByteIdentical) {
  const ExportedRun first = run_and_export();
  const ExportedRun second = run_and_export();
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_EQ(first.manifest, second.manifest);
  EXPECT_EQ(first.tapes, second.tapes);
}

TEST(ExportDeterminism, ContentMatchesPinnedDigests) {
  // Pins what telemetry records, not only that it repeats: the FNV-1a
  // digest and size of each export of the seed-11 run above. A change to
  // any counter, span or tape event moves one of these.
  const ExportedRun run = run_and_export();
  EXPECT_EQ(run.trace_hash, 0x701b196fb493497cULL);
  EXPECT_EQ(fnv1a64(run.metrics), 0x46c9042d60dceeeaULL);
  EXPECT_EQ(run.metrics.size(), 11'370u);
  EXPECT_EQ(fnv1a64(run.spans), 0x8ec0030196342653ULL);
  EXPECT_EQ(run.spans.size(), 2'863u);
  EXPECT_EQ(fnv1a64(run.tapes), 0x9482e8eb9b91c795ULL);
  EXPECT_EQ(run.tapes.size(), 17'418u);
  EXPECT_EQ(run.tape_count, 14u);
}

TEST(ExportDeterminism, BucketEdgesMatchGoldenFile) {
  // The golden file was generated from the documented closed form, not from
  // this code, so it catches a bucketing change from either side.
  ASSERT_EQ(Histogram::kSubBucketBits, 3u)
      << "resolution changed: regenerate bucket_edges_k3.txt deliberately";
  std::ifstream golden(std::string{HALFBACK_TELEMETRY_GOLDEN} +
                       "/bucket_edges_k3.txt");
  ASSERT_TRUE(golden.is_open());
  std::string line;
  std::size_t checked = 0;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::size_t index = 0;
    std::uint64_t lower = 0;
    std::uint64_t upper = 0;
    ASSERT_TRUE(fields >> index >> lower >> upper) << line;
    EXPECT_EQ(Histogram::bucket_lower(index), lower) << "index " << index;
    EXPECT_EQ(Histogram::bucket_upper(index), upper) << "index " << index;
    ++checked;
  }
  EXPECT_EQ(checked, 128u);
}

TEST(MetricsJsonl, OneValidObjectPerMetricInRegistrationOrder) {
  MetricRegistry registry;
  registry.counter("z.first", "registered first")->add(3);
  registry.gauge("a.second", "registered second")->set(1.5);
  registry.histogram("m.third", "registered third")->record(42);

  const std::string out = text_of(write_metrics_jsonl, registry);
  std::istringstream lines{out};
  std::vector<std::string> v;
  for (std::string line; std::getline(lines, line);) v.push_back(line);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NE(v[0].find("\"name\":\"z.first\""), std::string::npos) << v[0];
  EXPECT_NE(v[0].find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(v[0].find("\"value\":3"), std::string::npos);
  EXPECT_NE(v[1].find("\"name\":\"a.second\""), std::string::npos) << v[1];
  EXPECT_NE(v[2].find("\"name\":\"m.third\""), std::string::npos) << v[2];
  EXPECT_NE(v[2].find("\"count\":1"), std::string::npos);
}

TEST(ChromeTrace, EmitsMetadataSpansAndInstants) {
  Hub hub;
  Tape& tape = hub.recorder().tape(TrackKind::flow, 1, "flow 1 demo");
  tape.enter_phase(sim::Time::microseconds(0), FlowPhase::handshake);
  tape.record(sim::Time::microseconds(150), TapeEventKind::segment_sent, 5);
  SpanRecorder& spans = hub.spans();
  const std::uint32_t root =
      spans.open_span(1, SpanKind::flow, 0, sim::Time::microseconds(0));
  const std::uint32_t handshake = spans.open_span(
      1, SpanKind::handshake, root, sim::Time::microseconds(0));
  spans.close_span(handshake, sim::Time::microseconds(100));
  spans.open_span(1, SpanKind::pacing, root, sim::Time::microseconds(100));

  const std::string out =
      text_of(write_chrome_trace, hub, sim::Time::microseconds(400));
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // thread metadata
  EXPECT_NE(out.find("flow 1 demo"), std::string::npos);
  // Phases are drawn once, as pid-3 spans: handshake [0, 100) us; pacing
  // still open, so it closes at the end time of 400 us.
  EXPECT_NE(out.find("\"name\":\"handshake\",\"ts\":0.000,"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"ph\":\"E\",\"pid\":3,\"tid\":1,\"cat\":\"span\","
                     "\"name\":\"handshake\",\"ts\":100.000}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"name\":\"pacing\",\"ts\":100.000,"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"ph\":\"E\",\"pid\":3,\"tid\":1,\"cat\":\"span\","
                     "\"name\":\"pacing\",\"ts\":400.000}"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\"ph\":\"X\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(out.find("segment_sent"), std::string::npos);
  // The phase_enter tape event is not drawn twice.
  EXPECT_EQ(out.find("phase_enter"), std::string::npos) << out;
}

TEST(ChromeTrace, TraceFromEmulabRunHasPacingSpans) {
  // Acceptance shape for the CI smoke check: a real halfback run must
  // produce per-flow phase spans on pid 3, including the paced start.
  const ExportedRun run = run_and_export();
  EXPECT_NE(run.trace.find("\"ph\":\"B\",\"pid\":3,"), std::string::npos);
  EXPECT_NE(run.trace.find("\"cat\":\"span\",\"name\":\"pacing\""),
            std::string::npos);
  EXPECT_NE(run.trace.find("\"cat\":\"span\",\"name\":\"handshake\""),
            std::string::npos);
  EXPECT_EQ(run.trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, HubOverloadNestsSpanEventsAndKeepsTapePrefix) {
  const ExportedRun run = run_and_export();
  // The tape events form the trace's prefix: every pid-1/pid-2 event comes
  // before the span layer's first pid-3 event (its process metadata).
  const std::size_t spans_begin = run.trace.find("\"pid\":3,");
  ASSERT_NE(spans_begin, std::string::npos);
  EXPECT_EQ(run.trace.find("\"args\":{\"name\":\"spans\"}", spans_begin),
            run.trace.find("\"args\":{\"name\":\"spans\"}"));
  EXPECT_LT(run.trace.rfind("\"pid\":1,"), spans_begin);
  EXPECT_LT(run.trace.rfind("\"pid\":2,"), spans_begin);
  // The span layer: nested B/E duration pairs.
  EXPECT_NE(run.trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"name\":\"blast\""), std::string::npos);
  // B and E counts must match (every span closes at export).
  std::size_t opens = 0;
  std::size_t closes = 0;
  for (std::size_t pos = 0;
       (pos = run.trace.find("\"ph\":\"B\"", pos)) != std::string::npos;
       ++pos) {
    ++opens;
  }
  for (std::size_t pos = 0;
       (pos = run.trace.find("\"ph\":\"E\"", pos)) != std::string::npos;
       ++pos) {
    ++closes;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_GT(opens, 0u);
}

TEST(SpansJsonl, OneObjectPerSpanPlusFooter) {
  SpanRecorder spans;
  const std::uint32_t root =
      spans.open_span(9, SpanKind::flow, 0, sim::Time::milliseconds(1));
  const std::uint32_t hs = spans.open_span(9, SpanKind::handshake, root,
                                           sim::Time::milliseconds(1));
  spans.close_span(hs, sim::Time::milliseconds(2));

  const std::string out =
      text_of(write_spans_jsonl, spans, sim::Time::milliseconds(7));
  EXPECT_NE(
      out.find("{\"span\":1,\"parent\":0,\"flow\":9,\"kind\":\"flow\","
               "\"begin_ns\":1000000,\"end_ns\":7000000,\"open\":true,"
               "\"abandoned\":false}"),
      std::string::npos)
      << out;  // open span clamps its end to the export end
  EXPECT_NE(
      out.find("{\"span\":2,\"parent\":1,\"flow\":9,\"kind\":\"handshake\","
               "\"begin_ns\":1000000,\"end_ns\":2000000,\"open\":false,"
               "\"abandoned\":false}"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("{\"span_count\":2,\"dropped\":0}"), std::string::npos);
}

TEST(ManifestJson, CarriesProvenanceFields) {
  RunManifest manifest;
  manifest.experiment = "emulab";
  manifest.scheme = "halfback";
  manifest.seed = 42;
  manifest.config_digest = 0xdeadbeefcafef00dULL;
  manifest.trace_hash = 0x0123456789abcdefULL;
  manifest.sim_end = sim::Time::seconds(2);
  manifest.events_dispatched = 1000;
  const std::string out = text_of(write_manifest_json, manifest, nullptr);
  EXPECT_NE(out.find("\"experiment\":\"emulab\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"halfback\""), std::string::npos);
  EXPECT_NE(out.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(out.find("\"config_digest\":\"0xdeadbeefcafef00d\""),
            std::string::npos);
  EXPECT_NE(out.find("\"trace_hash\":\"0x0123456789abcdef\""),
            std::string::npos);
  EXPECT_NE(out.find("\"events_dispatched\":1000"), std::string::npos);
}

TEST(ManifestJson, Hex64IsZeroPaddedLowercase) {
  EXPECT_EQ(hex64(0), "0x0000000000000000");
  EXPECT_EQ(hex64(0xABCULL), "0x0000000000000abc");
  EXPECT_EQ(hex64(~0ULL), "0xffffffffffffffff");
}

TEST(ManifestJson, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Formatting, FormatDoubleIsLocaleFreeAndRoundTrips) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(-3.0), "-3");
  const std::string frac = format_double(1.5);
  EXPECT_EQ(frac, "1.5");
  EXPECT_EQ(std::stod(format_double(0.1)), 0.1);
}

TEST(Formatting, JsonEscapeHandlesQuotesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string{"a\x01"
                                    "b"}),
            "a\\u0001b");
}

TEST(HistogramBins, BridgeScalesEdgesAndKeepsCounts) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  h->record(2'000'000);  // 2 ms in ns
  const std::vector<stats::HistogramBin> bins = histogram_bins(*h, 1e6);
  ASSERT_EQ(bins.size(), h->bucket_count());
  std::uint64_t total = 0;
  for (const auto& bin : bins) {
    EXPECT_LT(bin.lower, bin.upper);
    total += bin.count;
  }
  EXPECT_EQ(total, 1u);
  EXPECT_LE(bins.back().lower, 2.0);
  EXPECT_GT(bins.back().upper, 2.0);
}

}  // namespace
}  // namespace halfback::telemetry
