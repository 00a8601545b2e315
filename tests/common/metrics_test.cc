#include "common/metrics.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_check.h"

namespace mrs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ValueAtPercentile(0.5), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Record(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, BucketBoundsAreLogSpaced) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 0.001);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 0.002);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 0.001 * 1024.0);
}

TEST(HistogramTest, PercentilesClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(5.0);
  // All mass in one bucket: every percentile must report within the
  // observed [min, max] = [5, 5], not the bucket's bounds.
  EXPECT_DOUBLE_EQ(h.ValueAtPercentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(h.ValueAtPercentile(0.99), 5.0);
}

TEST(HistogramTest, PercentileOrderingOnSpread) {
  Histogram h;
  // 90 fast (~0.1ms), 9 medium (~10ms), 1 slow (~1000ms).
  for (int i = 0; i < 90; ++i) h.Record(0.1);
  for (int i = 0; i < 9; ++i) h.Record(10.0);
  h.Record(1000.0);
  const double p50 = h.ValueAtPercentile(0.50);
  const double p95 = h.ValueAtPercentile(0.95);
  const double p99 = h.ValueAtPercentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p50, 1.0);     // within the fast band
  EXPECT_GE(p95, 1.0);     // in the medium band or above
  EXPECT_LE(p95, 20.0);
  EXPECT_GE(p99, 10.0);
}

TEST(HistogramTest, NegativeAndNanClampToZeroBucket) {
  Histogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, OverflowBucketHoldsHugeValues) {
  Histogram h;
  h.Record(1e15);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e15);
  EXPECT_DOUBLE_EQ(h.ValueAtPercentile(0.99), 1e15);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(1.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.ValueAtPercentile(0.5), 0.0);
}

TEST(HitMissCounterTest, CountsAndRate) {
  HitMissCounter c;
  EXPECT_EQ(c.HitRate(), 0.0);
  c.RecordHit();
  c.RecordHit();
  c.RecordMiss();
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.lookups(), 3u);
  EXPECT_NEAR(c.HitRate(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(c.ToString(), "hits=2 misses=1 (66.7%)");
  c.Reset();
  EXPECT_EQ(c.lookups(), 0u);
}

TEST(MetricsRegistryTest, GetIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y"), a);
  EXPECT_EQ(reg.GetGauge("x"), reg.GetGauge("x"));
  EXPECT_EQ(reg.GetHistogram("x"), reg.GetHistogram("x"));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("zeta")->Increment(3);
  reg.GetCounter("alpha")->Increment(1);
  reg.GetGauge("load")->Set(0.5);
  reg.GetHistogram("lat")->Record(2.0);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.CounterValue("zeta"), 3u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 2.0);
}

TEST(MetricsRegistryTest, CallbackProvidersSumPerName) {
  MetricsRegistry reg;
  uint64_t a = 5;
  uint64_t b = 7;
  auto ha = reg.RegisterCounterCallback("cache.hits", [&] { return a; });
  auto hb = reg.RegisterCounterCallback("cache.hits", [&] { return b; });
  EXPECT_EQ(reg.Snapshot().CounterValue("cache.hits"), 12u);
  a = 6;
  EXPECT_EQ(reg.Snapshot().CounterValue("cache.hits"), 13u);
}

TEST(MetricsRegistryTest, CallbackAndOwnedCounterMerge) {
  MetricsRegistry reg;
  reg.GetCounter("n")->Increment(10);
  auto handle = reg.RegisterCounterCallback("n", [] { return uint64_t{5}; });
  EXPECT_EQ(reg.Snapshot().CounterValue("n"), 15u);
}

TEST(MetricsRegistryTest, CallbackHandleUnregistersOnDestruction) {
  MetricsRegistry reg;
  {
    auto handle =
        reg.RegisterCounterCallback("gone", [] { return uint64_t{9}; });
    EXPECT_EQ(reg.Snapshot().CounterValue("gone"), 9u);
  }
  EXPECT_EQ(reg.Snapshot().CounterValue("gone"), 0u);
}

TEST(MetricsRegistryTest, CallbackHandleMoveTransfersOwnership) {
  MetricsRegistry reg;
  auto a = reg.RegisterCounterCallback("m", [] { return uint64_t{1}; });
  MetricsRegistry::CallbackHandle b = std::move(a);
  EXPECT_EQ(reg.Snapshot().CounterValue("m"), 1u);
  b.Release();
  EXPECT_EQ(reg.Snapshot().CounterValue("m"), 0u);
}

TEST(MetricsRegistryTest, ResetAllZeroesOwnedMetricsOnly) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment(4);
  reg.GetHistogram("h")->Record(1.0);
  auto handle = reg.RegisterCounterCallback("cb", [] { return uint64_t{2}; });
  reg.ResetAll();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("c"), 0u);
  EXPECT_EQ(snap.CounterValue("cb"), 2u);  // read-through, unaffected
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment(2);
  reg.GetGauge("g")->Set(1.5);
  reg.GetHistogram("h")->Record(3.0);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c\":2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.500000}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, SnapshotJsonEscapesMetricNames) {
  // Metric names are JSON strings: a quote, backslash or control
  // character in a name must not break the document.
  MetricsRegistry reg;
  reg.GetCounter("say \"hi\"")->Increment(3);
  reg.GetGauge("back\\slash")->Set(0.25);
  reg.GetHistogram("tab\there")->Record(2.0);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_TRUE(testing_util::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"say \\\"hi\\\"\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"back\\\\slash\":0.250000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tab\\there\":{\"count\":1"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsConsistent) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("spins");
  Histogram* hist = reg.GetHistogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Record(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(hist->sum(), static_cast<double>(kThreads * kPerThread));
}

}  // namespace
}  // namespace mrs
