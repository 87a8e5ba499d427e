// Exporters: deterministic text serializations of a run's telemetry.
//
// Every format iterates the registry / recorder / span log in
// registration / creation order and formats numbers with pure integer
// math wherever the value is integral, so two same-seed runs emit
// byte-identical output (tests/telemetry/export_test.cpp holds that
// contract and pins the content).
//
//  - metrics JSONL: one self-describing JSON object per line per metric.
//  - Chrome trace_event JSON: load in Perfetto / chrome://tracing. pid 1
//    carries one thread per flow tape, pid 2 one per link tape (tape
//    points as instants); pid 3 draws the span log, so phases are drawn
//    once, as spans.
//  - spans JSONL: the span log.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"
#include "stats/ascii_plot.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/hub.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"

namespace halfback::telemetry {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Format a double without locale dependence: integral values (|v| < 2^53)
/// print as integers, everything else with enough digits to round-trip.
std::string format_double(double v);

// Writes to the caller-supplied stream: deliberately NOT an `io` effect
// (ambient I/O means touching a stream the caller did not hand over).
void write_metrics_jsonl(std::ostream& out, const MetricRegistry& registry)
    HB_EFFECTS(alloc, throw);

/// Chrome trace of a hub: every tape's point events as instants on pid 1
/// (flows) and pid 2 (links), then the causal span log as nested B/E
/// duration events on pid 3 — one thread per flow for the phase tree (flow
/// root wrapping handshake / pacing / blast / ropr / fallback children)
/// and a second thread per flow for its RTO-recovery episodes, so each
/// thread's B/E events nest strictly. Spans still open at export close at
/// `end` (pass the simulator clock at snapshot time); children clamp to
/// their parent's bounds.
void write_chrome_trace(std::ostream& out, const Hub& hub, sim::Time end);

/// Span log as JSONL: one object per span in recorded (id) order, plus a
/// trailing summary line with the span count and overflow drops. Open
/// spans report `"open":true` with their end clamped to `end`.
void write_spans_jsonl(std::ostream& out, const SpanRecorder& spans,
                       sim::Time end) HB_EFFECTS(alloc, throw);

/// Bridge to stats::ascii_histogram: the histogram's occupied buckets as
/// bins, edges divided by `scale` (1e6 turns nanoseconds into ms). Inline
/// so benches that already link both libraries pay no extra dependency.
inline std::vector<stats::HistogramBin> histogram_bins(const Histogram& h,
                                                       double scale = 1.0) {
  std::vector<stats::HistogramBin> bins;
  bins.reserve(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    stats::HistogramBin bin;
    bin.lower = static_cast<double>(Histogram::bucket_lower(i)) / scale;
    bin.upper = static_cast<double>(Histogram::bucket_upper(i)) / scale;
    bin.count = h.bucket_value(i);
    bins.push_back(bin);
  }
  return bins;
}

}  // namespace halfback::telemetry
