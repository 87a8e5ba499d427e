#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace halfback::telemetry {
namespace {

/// Nanoseconds rendered as microseconds with three decimals (trace_event
/// `ts` is in microseconds; integer math keeps the text stable).
std::string micros(std::int64_t ns) {
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  return buf;
}

void write_histogram_fields(std::ostream& out, const Histogram& h) {
  out << "\"count\":" << h.count() << ",\"sum\":" << h.sum()
      << ",\"min\":" << h.min() << ",\"max\":" << h.max()
      << ",\"p50\":" << h.value_at_quantile(0.5)
      << ",\"p90\":" << h.value_at_quantile(0.9)
      << ",\"p99\":" << h.value_at_quantile(0.99)
      << ",\"p999\":" << h.value_at_quantile(0.999)
      << ",\"sub_bucket_bits\":" << Histogram::kSubBucketBits << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket_value(i) == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '[' << Histogram::bucket_lower(i) << ',' << Histogram::bucket_upper(i)
        << ',' << h.bucket_value(i) << ']';
  }
  out << ']';
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9007199254740992.0) {  // 2^53
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics_jsonl(std::ostream& out, const MetricRegistry& registry) {
  for (const MetricRegistry::Entry& e : registry.entries()) {
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"kind\":\""
        << to_string(e.kind) << "\",\"unit\":\"" << to_string(e.unit)
        << "\",\"help\":\"" << json_escape(e.help) << "\",";
    switch (e.kind) {
      case MetricKind::counter:
        out << "\"value\":" << registry.counter_at(e).value();
        break;
      case MetricKind::gauge:
        out << "\"value\":" << format_double(registry.gauge_at(e).value());
        break;
      case MetricKind::histogram:
        write_histogram_fields(out, registry.histogram_at(e));
        break;
    }
    out << "}\n";
  }
}

namespace {

/// The trace header and every tape's point events as instants.
void write_trace_tape_events(std::ostream& out,
                             const FlightRecorder& recorder) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"flows\"}}";
  out << ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"links\"}}";

  for (std::size_t t = 0; t < recorder.tape_count(); ++t) {
    const Tape& tape = recorder.tape_at(t);
    const int pid = tape.track() == TrackKind::flow ? 1 : 2;
    const std::size_t tid = t + 1;
    std::string label = tape.label();
    if (label.empty()) {
      label = (pid == 1 ? "flow " : "link ") + std::to_string(tape.id());
    }
    out << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(label) << "\"}}";

    for (std::size_t i = 0; i < tape.size(); ++i) {
      const TapeEvent& ev = tape.event(i);
      // Phases are drawn once, as the pid-3 spans.
      if (ev.kind == TapeEventKind::phase_enter) continue;
      out << ",\n{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
          << ",\"cat\":\"tape\",\"s\":\"t\",\"name\":\"" << to_string(ev.kind)
          << "\",\"ts\":" << micros(ev.at.ns()) << ",\"args\":{\"a\":" << ev.a
          << ",\"b\":" << ev.b << "}}";
    }
  }
}

/// The B (begin) event of span `s` at `at`.
void write_span_begin(std::ostream& out, int tid, const Span& s, sim::Time at) {
  out << ",\n{\"ph\":\"B\",\"pid\":3,\"tid\":" << tid
      << ",\"cat\":\"span\",\"name\":\"" << to_string(s.kind)
      << "\",\"ts\":" << micros(at.ns()) << ",\"args\":{\"span\":" << s.id
      << ",\"parent\":" << s.parent
      << (s.abandoned ? ",\"abandoned\":true" : "") << "}}";
}

/// The E (end) event of span `s` at `at`.
void write_span_end(std::ostream& out, int tid, const Span& s, sim::Time at) {
  out << ",\n{\"ph\":\"E\",\"pid\":3,\"tid\":" << tid
      << ",\"cat\":\"span\",\"name\":\"" << to_string(s.kind)
      << "\",\"ts\":" << micros(at.ns()) << "}";
}

/// One nested B/E pair, clamped to [lo, hi].
void write_span_pair(std::ostream& out, int tid, const Span& s, sim::Time lo,
                     sim::Time hi) {
  sim::Time b = s.begin < lo ? lo : s.begin;
  sim::Time e = s.open ? hi : s.end;
  if (e > hi) e = hi;
  if (e < b) e = b;
  write_span_begin(out, tid, s, b);
  write_span_end(out, tid, s, e);
}

/// Span log as pid-3 duration events: per flow, one thread for the phase
/// tree (the flow root's B/E bracketing its sequential phase children) and
/// one for RTO-recovery episodes, so every thread's B/E events nest.
void write_trace_span_events(std::ostream& out, const SpanRecorder& spans,
                             sim::Time end) {
  out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"spans\"}}";
  // Flows in first-appearance order; span ids are open-ordered, so this is
  // deterministic.
  std::vector<std::uint64_t> flows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t flow = spans.at(i).flow;
    if (std::find(flows.begin(), flows.end(), flow) == flows.end()) {
      flows.push_back(flow);
    }
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const std::uint64_t flow = flows[f];
    const int tid_phase = static_cast<int>(2 * f + 1);
    const int tid_rto = static_cast<int>(2 * f + 2);
    out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << tid_phase
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"flow "
        << flow << "\"}}";

    // Phase thread: the flow root wraps its children.
    const Span* root = nullptr;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans.at(i);
      if (s.flow == flow && s.kind == SpanKind::flow) {
        root = &s;
        break;
      }
    }
    const sim::Time lo = root != nullptr ? root->begin : sim::Time::zero();
    const sim::Time hi =
        root == nullptr || root->open
            ? end
            : (root->end > end ? end : root->end);
    if (root != nullptr) write_span_begin(out, tid_phase, *root, lo);
    bool any_rto = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans.at(i);
      if (s.flow != flow) continue;
      if (s.kind == SpanKind::flow) continue;
      if (s.kind == SpanKind::rto_recovery) {
        any_rto = true;
        continue;
      }
      write_span_pair(out, tid_phase, s, lo, hi);
    }
    if (root != nullptr) write_span_end(out, tid_phase, *root, hi);

    // RTO thread: episodes are sequential (one open at a time per flow).
    if (any_rto) {
      out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << tid_rto
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"flow " << flow
          << " rto\"}}";
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans.at(i);
        if (s.flow != flow || s.kind != SpanKind::rto_recovery) continue;
        write_span_pair(out, tid_rto, s, lo, end);
      }
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Hub& hub, sim::Time end) {
  write_trace_tape_events(out, hub.recorder());
  write_trace_span_events(out, hub.spans(), end);
  out << "\n]}\n";
}

void write_spans_jsonl(std::ostream& out, const SpanRecorder& spans,
                       sim::Time end) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans.at(i);
    const sim::Time stop = s.open ? end : s.end;
    out << "{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"flow\":" << s.flow << ",\"kind\":\"" << to_string(s.kind)
        << "\",\"begin_ns\":" << (s.begin.ns() < 0 ? 0 : s.begin.ns())
        << ",\"end_ns\":" << (stop.ns() < 0 ? 0 : stop.ns())
        << ",\"open\":" << (s.open ? "true" : "false")
        << ",\"abandoned\":" << (s.abandoned ? "true" : "false") << "}\n";
  }
  out << "{\"span_count\":" << spans.size()
      << ",\"dropped\":" << spans.dropped() << "}\n";
}

}  // namespace halfback::telemetry
