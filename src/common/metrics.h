#ifndef MRS_COMMON_METRICS_H_
#define MRS_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mrs {

class JsonWriter;

/// Process-wide scheduler telemetry: named counters, gauges, and
/// fixed-bucket latency histograms, collected into deterministic-order
/// snapshots. This is the layer the batch engine, the parallelize cache,
/// and `sched_cli --metrics` report through; per-query *causality* (which
/// stage took how long, which eq. (3) term bound a phase) lives in
/// exec/trace.h — the registry holds the process aggregates.
///
/// All recording paths are lock-free (relaxed atomics); only
/// creation/lookup of a metric and snapshotting take the registry mutex.
/// Metric objects are owned by their registry and live until the registry
/// dies, so handles obtained once may be cached and hit without locking.

/// Monotone event counter.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }

  /// Atomic v += delta (CAS loop; doubles have no fetch_add pre-C++20
  /// on all toolchains). Used by up/down resource gauges recorded from
  /// many threads — the server's connection count and write backlog.
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram for millisecond durations. Buckets are
/// log-spaced powers of two from 1 us up (values above the last boundary
/// land in an overflow bucket); percentiles are estimated by linear
/// interpolation inside the covering bucket and clamped to the observed
/// [min, max]. Thread-safe; recording is a relaxed atomic add.
class Histogram {
 public:
  /// Bucket i covers (upper(i-1), upper(i)] with upper(i) = 0.001 * 2^i ms,
  /// i.e. 1 us .. ~2^39 us (~9 days); +1 overflow bucket.
  static constexpr size_t kNumBounds = 40;

  Histogram() = default;

  void Record(double value_ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  double min() const;
  double max() const;
  double mean() const;

  /// Estimated value at quantile q in [0, 1]; 0 when empty.
  double ValueAtPercentile(double q) const;

  void Reset();

  /// Upper bound of bucket i (i < kNumBounds).
  static double BucketUpperBound(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kNumBounds + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-inf sentinels while empty; min()/max() report 0 until the first
  // Record.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Thread-safe hit/miss counter pair for memoization caches (the batch
/// engine's parallelize cache reports through one of these). Relaxed
/// atomics: counts are monotone but only approximately ordered across
/// threads, which is all cache metrics need. Instances publish into a
/// MetricsRegistry via RegisterCounterCallback — the registry reads the
/// same atomics, so there is exactly one accounting path.
class HitMissCounter {
 public:
  HitMissCounter() = default;

  void RecordHit() { hits_.Increment(); }
  void RecordMiss() { misses_.Increment(); }

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t lookups() const { return hits() + misses(); }

  /// hits / (hits + misses); 0 before the first lookup.
  double HitRate() const;

  void Reset() {
    hits_.Reset();
    misses_.Reset();
  }

  /// "hits=12 misses=3 (80.0%)"
  std::string ToString() const;

 private:
  Counter hits_;
  Counter misses_;
};

/// Point-in-time view of a histogram, with the percentiles the serving
/// reports care about.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Deterministically ordered (by name) view of a registry. Counter values
/// include registered callback providers (summed per name).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a counter by name; 0 if absent (test aid).
  uint64_t CounterValue(const std::string& name) const;

  /// Stable JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  /// "p50":..,"p95":..,"p99":..}}}. Keys sorted by name and escaped as
  /// JSON strings; a non-finite value is written as null.
  std::string ToJson() const;
  /// ToJson's text, appended through `out`.
  void AppendJson(JsonWriter* out) const;

  /// Human-readable multi-line table.
  std::string ToString() const;
};

/// Registry of named metrics. `Global()` is the process-wide instance;
/// tests create their own for isolation. Get* calls are idempotent: the
/// first call creates, later calls return the same object.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// RAII registration of an external monotone value (e.g. a cache's
  /// per-instance hit counter) published into snapshots without a second
  /// recording path: the snapshot reads through the callback. Multiple
  /// live callbacks under one name sum. Unregisters on destruction.
  class CallbackHandle {
   public:
    CallbackHandle() = default;
    CallbackHandle(CallbackHandle&& other) noexcept;
    CallbackHandle& operator=(CallbackHandle&& other) noexcept;
    CallbackHandle(const CallbackHandle&) = delete;
    CallbackHandle& operator=(const CallbackHandle&) = delete;
    ~CallbackHandle();

    void Release();

   private:
    friend class MetricsRegistry;
    CallbackHandle(MetricsRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  CallbackHandle RegisterCounterCallback(std::string name,
                                         std::function<uint64_t()> fn);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every owned metric (callback providers read through and are
  /// unaffected). Test aid.
  void ResetAll();

 private:
  friend class CallbackHandle;
  void UnregisterCallback(uint64_t id);

  struct CallbackEntry {
    uint64_t id = 0;
    std::string name;
    std::function<uint64_t()> fn;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<CallbackEntry> callbacks_;
  uint64_t next_callback_id_ = 1;
};

}  // namespace mrs

#endif  // MRS_COMMON_METRICS_H_
