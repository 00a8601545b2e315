#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json_writer.h"
#include "common/str_util.h"

namespace mrs {

namespace {

/// Relaxed CAS add for pre-C++20-toolchain portability of atomic doubles.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value > cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HitMissCounter::HitRate() const {
  const uint64_t h = hits();
  const uint64_t total = h + misses();
  if (total == 0) return 0.0;
  return static_cast<double>(h) / static_cast<double>(total);
}

std::string HitMissCounter::ToString() const {
  return StrFormat("hits=%llu misses=%llu (%.1f%%)",
                   static_cast<unsigned long long>(hits()),
                   static_cast<unsigned long long>(misses()),
                   100.0 * HitRate());
}

double Histogram::BucketUpperBound(size_t i) {
  return 0.001 * std::ldexp(1.0, static_cast<int>(i));  // 0.001 * 2^i ms
}

void Histogram::Record(double value_ms) {
  if (!(value_ms >= 0.0)) value_ms = 0.0;  // negatives and NaN clamp to 0
  size_t bucket = kNumBounds;  // overflow by default
  for (size_t i = 0; i < kNumBounds; ++i) {
    if (value_ms <= BucketUpperBound(i)) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value_ms);
  AtomicMin(&min_, value_ms);
  AtomicMax(&max_, value_ms);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::ValueAtPercentile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank with a floor of
  // 1), then linear interpolation inside the covering bucket.
  const double rank = std::max(1.0, q * static_cast<double>(n));
  uint64_t seen = 0;
  for (size_t i = 0; i <= kNumBounds; ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      const double hi = i == kNumBounds ? max() : BucketUpperBound(i);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

void MetricsSnapshot::AppendJson(JsonWriter* out) const {
  out->Raw("{\"counters\":{");
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out->Raw(',');
    out->String(counters[i].first).Raw(':').Uint(counters[i].second);
  }
  out->Raw("},\"gauges\":{");
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out->Raw(',');
    out->String(gauges[i].first).Raw(':').Fixed6(gauges[i].second);
  }
  out->Raw("},\"histograms\":{");
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out->Raw(',');
    const HistogramSnapshot& h = histograms[i];
    out->String(h.name).Raw(":{\"count\":").Uint(h.count);
    out->Raw(",\"sum\":").Fixed6(h.sum).Raw(",\"min\":").Fixed6(h.min);
    out->Raw(",\"max\":").Fixed6(h.max).Raw(",\"p50\":").Fixed6(h.p50);
    out->Raw(",\"p95\":").Fixed6(h.p95).Raw(",\"p99\":").Fixed6(h.p99);
    out->Raw('}');
  }
  out->Raw("}}");
}

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  JsonWriter writer(&out);
  AppendJson(&writer);
  return out;
}

std::string MetricsSnapshot::ToString() const {
  std::string out = "metrics:\n";
  for (const auto& [name, v] : counters) {
    out += StrFormat("  counter   %-32s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    out += StrFormat("  gauge     %-32s %.3f\n", name.c_str(), v);
  }
  for (const HistogramSnapshot& h : histograms) {
    out += StrFormat(
        "  histogram %-32s count=%llu mean=%s p50=%s p95=%s p99=%s max=%s\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count),
        FormatMillis(h.count == 0 ? 0.0
                                  : h.sum / static_cast<double>(h.count))
            .c_str(),
        FormatMillis(h.p50).c_str(), FormatMillis(h.p95).c_str(),
        FormatMillis(h.p99).c_str(), FormatMillis(h.max).c_str());
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();  // never destroyed
  return *global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::CallbackHandle::CallbackHandle(CallbackHandle&& other) noexcept
    : registry_(other.registry_), id_(other.id_) {
  other.registry_ = nullptr;
  other.id_ = 0;
}

MetricsRegistry::CallbackHandle& MetricsRegistry::CallbackHandle::operator=(
    CallbackHandle&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

MetricsRegistry::CallbackHandle::~CallbackHandle() { Release(); }

void MetricsRegistry::CallbackHandle::Release() {
  if (registry_ != nullptr) {
    registry_->UnregisterCallback(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

MetricsRegistry::CallbackHandle MetricsRegistry::RegisterCounterCallback(
    std::string name, std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_callback_id_++;
  callbacks_.push_back({id, std::move(name), std::move(fn)});
  return CallbackHandle(this, id);
}

void MetricsRegistry::UnregisterCallback(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < callbacks_.size(); ++i) {
    if (callbacks_[i].id == id) {
      callbacks_.erase(callbacks_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // std::map iteration is name-sorted; callback values merge into the
  // counter map (summing with owned counters and same-name callbacks).
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] += counter->value();
  }
  for (const CallbackEntry& cb : callbacks_) {
    counters[cb.name] += cb.fn();
  }
  snap.counters.assign(counters.begin(), counters.end());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    h.p50 = histogram->ValueAtPercentile(0.50);
    h.p95 = histogram->ValueAtPercentile(0.95);
    h.p99 = histogram->ValueAtPercentile(0.99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mrs
