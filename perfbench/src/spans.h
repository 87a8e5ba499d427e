// In-memory span recorder for the traced run.
//
// A span covers one call into a layer: its name ("<layer>.<boundary>"),
// start and end (steady_clock ns), the span that was open when it began
// (its parent), and the id of the run it belongs to, shared by every span
// of that run. Counts are recorded at the same boundaries. Spans stay in
// memory (up to a capacity; later ones are counted, not stored) and are
// written once, when the benchmark ends.
//
// Per-packet boundaries are sampled: `sampled()` times every
// `sample_period`-th call of a boundary that is not nested in another
// sampled boundary, and gives that span the period as its weight. Inside a
// timed boundary every nested boundary is timed too, with the parent's
// weight; inside an untimed one nothing is timed, since the timed calls of
// the outer boundary already stand for it. Totals are weighted sums, so
// they estimate the unsampled time. A span's self time is its duration
// minus the weighted durations of its children, folded in as spans close.
//
// Reading the clock costs about as much as a short hook, and a sampled span
// finds the clock cold. So open() reads it twice and charges the gap, the
// cost of one read in the same state, against the span; and calibrate()
// measures what an empty span adds to an enclosing one, which close()
// takes out of the parent for every timed span nested in it.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffU;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;  ///< index of the enclosing stored span
    std::uint32_t run = 0;
    std::uint32_t weight = 1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Weighted totals per span name.
  struct Totals {
    double inclusive_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t spans = 0;  ///< spans closed (timed calls)
    std::uint64_t calls = 0;  ///< boundary crossings, timed or not
  };

  explicit SpanRecorder(std::size_t capacity = 1u << 18,
                        std::uint32_t sample_period = 1021);

  /// Intern a span name (set-up path).
  std::uint32_t name_id(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t name_count() const { return names_.size(); }

  /// Measure what an empty span adds to its parent (see the file comment).
  /// Without it the cost is taken as zero.
  void calibrate();
  double outside_overhead_ns() const { return outside_ns_; }

  /// Start run `run`: later spans carry its id. Drops any frame an aborted
  /// run left open.
  void begin_run(std::uint32_t run);

  /// Open/close a span at explicit times (tests) or now. open() reads the
  /// clock after its bookkeeping and close() before its own, so a span's
  /// interval holds as little of the recorder as possible.
  void open(std::uint32_t name, std::uint32_t weight, std::int64_t now_ns);
  void close(std::int64_t now_ns);
  void open(std::uint32_t name, std::uint32_t weight = 1) {
    open(name, weight, 0);
    Frame& frame = frames_.back();
    const std::int64_t first = now();
    frame.start_ns = now();
    frame.read_ns = frame.start_ns - first;
    if (frame.span != kNone) spans_[frame.span].start_ns = frame.start_ns;
  }
  void close() { close(now()); }

  /// A span around `f()`, always timed.
  template <class F>
  void span(std::uint32_t name, F&& f) {
    ++totals_[name].calls;
    open(name);
    f();
    close();
  }

  /// A sampled per-packet boundary around `f()` (see the file comment).
  template <class F>
  void sampled(std::uint32_t name, F&& f) {
    Totals& t = totals_[name];
    const bool outermost = fine_depth_ == 0;
    const bool timed = outermost ? t.calls % period_ == 0 : fine_timed_;
    ++t.calls;
    if (!timed) {
      ++fine_depth_;
      f();
      --fine_depth_;
      return;
    }
    const std::uint32_t weight = outermost ? period_ : frames_.back().weight;
    open(name, weight);
    ++fine_depth_;
    fine_timed_ = true;
    f();
    --fine_depth_;
    fine_timed_ = !outermost;
    close();
  }

  const Totals& totals(std::uint32_t name) const { return totals_[name]; }
  /// Weighted self time of every span whose name starts with "<layer>.".
  double layer_self_ns(std::string_view layer) const;

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// One JSON object per stored span.
  void write_jsonl(std::ostream& out) const;

  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    std::uint32_t span = kNone;
    std::uint32_t name = 0;
    std::uint32_t weight = 1;
    std::int64_t start_ns = 0;
    std::int64_t read_ns = 0;     ///< cost of one clock read, measured at open
    double child_ns = 0.0;        ///< weighted duration of closed children
    double child_overhead = 0.0;  ///< reading cost of timed spans inside
  };

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Frame> frames_;
  std::size_t capacity_;
  std::uint32_t period_;
  std::uint32_t run_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t fine_depth_ = 0;
  bool fine_timed_ = false;
  double outside_ns_ = 0.0;
};

}  // namespace perfbench
