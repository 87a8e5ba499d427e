#include "spans.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity, std::uint32_t sample_period)
    : capacity_{capacity}, period_{sample_period == 0 ? 1 : sample_period} {
  spans_.reserve(capacity_);
}

std::uint32_t SpanRecorder::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanRecorder::calibrate() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 20000;
  SpanRecorder probe{kSpans, 1};
  const std::uint32_t name = probe.name_id("calibrate.empty");
  std::vector<double> outside;
  for (int r = 0; r < kRounds; ++r) {
    probe.begin_run(0);
    probe.spans_.clear();
    const std::int64_t t0 = now();
    for (int i = 0; i < kSpans; ++i) {
      probe.open(name);
      probe.close();
    }
    outside.push_back(static_cast<double>(now() - t0) / kSpans);
  }
  std::sort(outside.begin(), outside.end());
  outside_ns_ = outside[kRounds / 2];
}

void SpanRecorder::begin_run(std::uint32_t run) {
  run_ = run;
  frames_.clear();
  fine_depth_ = 0;
  fine_timed_ = false;
}

void SpanRecorder::open(std::uint32_t name, std::uint32_t weight, std::int64_t now_ns) {
  Frame frame;
  frame.name = name;
  frame.weight = weight;
  frame.start_ns = now_ns;
  if (spans_.size() < capacity_) {
    Span s;
    s.name = name;
    s.parent = frames_.empty() ? kNone : frames_.back().span;
    s.run = run_;
    s.weight = weight;
    s.start_ns = now_ns;
    frame.span = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  frames_.push_back(frame);
}

void SpanRecorder::close(std::int64_t now_ns) {
  if (frames_.empty()) throw std::logic_error("SpanRecorder::close without open");
  const Frame frame = frames_.back();
  frames_.pop_back();
  if (frame.span != kNone) spans_[frame.span].end_ns = now_ns;
  const double duration = std::max(
      0.0, static_cast<double>(now_ns - frame.start_ns - frame.read_ns) - frame.child_overhead);
  const double weighted = static_cast<double>(frame.weight) * duration;
  Totals& t = totals_[frame.name];
  t.inclusive_ns += weighted;
  t.self_ns += weighted - frame.child_ns;
  ++t.spans;
  if (!frames_.empty()) {
    frames_.back().child_ns += weighted;
    frames_.back().child_overhead += outside_ns_ + frame.child_overhead;
  }
}

double SpanRecorder::layer_self_ns(std::string_view layer) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::string& n = names_[i];
    if (n.size() > layer.size() && n.compare(0, layer.size(), layer) == 0 &&
        n[layer.size()] == '.') {
      sum += totals_[i].self_ns;
    }
  }
  return sum;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << names_[s.name] << "\", \"run\": " << s.run
        << ", \"parent\": ";
    if (s.parent == kNone) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"weight\": " << s.weight << "}\n";
  }
}

}  // namespace perfbench
