// MetricRegistry and instrument semantics: registration order, dedup,
// kind safety, and the log-linear histogram's pure-integer bucketing.
#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include "sim/time.h"

namespace halfback::telemetry {
namespace {

TEST(Counter, AddsAndIncrements) {
  MetricRegistry registry;
  Counter* c = registry.counter("c", "test");
  c->increment();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(Gauge, SetAndHighWater) {
  MetricRegistry registry;
  Gauge* g = registry.gauge("g", "test");
  g->set(5.0);
  g->set_max(3.0);
  EXPECT_EQ(g->value(), 5.0);
  g->set_max(9.0);
  EXPECT_EQ(g->value(), 9.0);
  g->set(1.0);  // plain set still overwrites downward
  EXPECT_EQ(g->value(), 1.0);
}

TEST(Registry, RegistrationOrderIsEntryOrder) {
  MetricRegistry registry;
  registry.counter("zulu", "late alphabetically, first registered");
  registry.gauge("alpha", "early alphabetically, second registered");
  registry.histogram("mike", "third");
  ASSERT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.entries()[0].name, "zulu");
  EXPECT_EQ(registry.entries()[1].name, "alpha");
  EXPECT_EQ(registry.entries()[2].name, "mike");
}

TEST(Registry, ReRegisteringReturnsTheSameInstrument) {
  MetricRegistry registry;
  Counter* first = registry.counter("shared", "one");
  Counter* second = registry.counter("shared", "ignored on re-register");
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  MetricRegistry registry;
  registry.counter("name", "a counter");
  EXPECT_THROW(registry.gauge("name", "now a gauge?"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("name", "or a histogram?"),
               std::invalid_argument);
}

TEST(Registry, FindReturnsNullForUnknown) {
  MetricRegistry registry;
  registry.counter("known", "x");
  EXPECT_NE(registry.find("known"), nullptr);
  EXPECT_EQ(registry.find("unknown"), nullptr);
}

TEST(Registry, PointersStayStableAcrossGrowth) {
  MetricRegistry registry;
  Counter* first = registry.counter("first", "x");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.counter(name, "filler");
  }
  first->increment();
  const auto* e = registry.find("first");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(registry.counter_at(*e).value(), 1u);
  EXPECT_EQ(registry.counter("first", ""), first);
}

TEST(Histogram, UnitRegionBucketsAreExact) {
  // With k sub-bucket bits, values below 2^k each get their own bucket.
  for (std::uint64_t v = 0; v < (1u << Histogram::kSubBucketBits); ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v + 1);
  }
}

TEST(Histogram, EveryValueLandsInsideItsBucket) {
  // Probe values around every power of two up to 2^40, plus neighbours.
  for (unsigned p = 0; p <= 40; ++p) {
    for (std::int64_t delta : {-1, 0, 1, 3}) {
      const std::int64_t raw = (std::int64_t{1} << p) + delta;
      if (raw < 0) continue;
      const auto v = static_cast<std::uint64_t>(raw);
      const std::size_t i = Histogram::bucket_index(v);
      EXPECT_LE(Histogram::bucket_lower(i), v) << "v=" << v;
      EXPECT_LT(v, Histogram::bucket_upper(i)) << "v=" << v;
    }
  }
}

TEST(Histogram, BucketEdgesAreContiguousAndMonotone) {
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(Histogram::bucket_upper(i), Histogram::bucket_lower(i + 1));
    EXPECT_LT(Histogram::bucket_lower(i), Histogram::bucket_upper(i));
  }
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  for (std::uint64_t v : {5u, 10u, 100u, 1000u}) h->record(v);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 1115u);
  EXPECT_EQ(h->min(), 5u);
  EXPECT_EQ(h->max(), 1000u);
  EXPECT_DOUBLE_EQ(h->mean(), 1115.0 / 4.0);
}

TEST(Histogram, EmptyHistogramHasZeroStats) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 0u);
  EXPECT_EQ(h->mean(), 0.0);
}

TEST(Histogram, RecordTimeClampsNegativeDurations) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  h->record_time(sim::Time::nanoseconds(-5));
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->max(), 0u);
}

TEST(Histogram, ValueAtQuantileGoldenInUnitRegion) {
  // Values below the sub-bucket threshold land in width-1 buckets, so the
  // interpolated estimate is fully determined: pin it.
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  for (std::uint64_t v = 1; v <= 10; ++v) h->record(v);
  EXPECT_EQ(h->value_at_quantile(0.5), 6u);
  EXPECT_EQ(h->value_at_quantile(0.9), 10u);
  EXPECT_EQ(h->value_at_quantile(0.99), 10u);
  EXPECT_EQ(h->value_at_quantile(0.0), 1u);   // q<=0 -> min
  EXPECT_EQ(h->value_at_quantile(1.0), 10u);  // q>=1 -> max
}

TEST(Histogram, ValueAtQuantileSingleValueAndEmpty) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  EXPECT_EQ(h->value_at_quantile(0.5), 0u);  // empty -> 0
  h->record(7);
  h->record(7);
  h->record(7);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h->value_at_quantile(q), 7u) << "q=" << q;
  }
}

TEST(Histogram, ValueAtQuantileStaysInsideTheConservativeBound) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  for (std::uint64_t v = 1; v <= 1000; ++v) h->record(v);
  std::uint64_t prev = 0;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::uint64_t v = h->value_at_quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;  // monotone in q
    EXPECT_GE(v, h->min());
    EXPECT_LE(v, h->max());
    prev = v;
  }
  // The interpolated p50 of 1..1000 must be near 500, tighter than a
  // bucket edge, which may overshoot by a full bucket.
  EXPECT_GE(h->value_at_quantile(0.5), 480u);
  EXPECT_LE(h->value_at_quantile(0.5), 520u);
}

TEST(Histogram, LazyStorageGrowsToHighestBucketOnly) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  h->record(3);
  EXPECT_EQ(h->bucket_count(), 4u);  // unit region, bucket 3
  h->record(1'000'000);
  EXPECT_EQ(h->bucket_count(),
            Histogram::bucket_index(1'000'000) + 1);
}

}  // namespace
}  // namespace halfback::telemetry
