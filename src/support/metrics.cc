#include "src/support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace alt {

namespace {

int BucketIndex(double value) {
  if (!(value > 1.0)) {  // <= 1, zero, negative, NaN
    return 0;
  }
  int idx = 1 + static_cast<int>(std::floor(std::log2(value) *
                                            static_cast<double>(Histogram::kSubBuckets)));
  return std::min(std::max(idx, 1), Histogram::kBuckets - 1);
}

// Percentile over raw bucket counts: upper bound of the bucket holding the
// rank, clamped to `max` (no observed value lies above it, so neither may a
// percentile). Shared by the live histogram and (delta) snapshots; a lifetime
// max is still an upper bound for a delta's values.
double PercentileFromBuckets(const std::vector<int64_t>& buckets, int64_t count, double max,
                             double p) {
  if (count <= 0) {
    return 0.0;
  }
  double frac = std::min(std::max(p, 0.0), 100.0) / 100.0;
  int64_t target = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(frac * count)));
  int64_t cumulative = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      return std::min(Histogram::BucketUpperBound(i), max);
    }
  }
  return std::min(Histogram::BucketUpperBound(Histogram::kBuckets - 1), max);
}

std::string FormatJsonDouble(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no NaN/Inf; instruments never produce them anyway
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double Histogram::BucketUpperBound(int i) {
  if (i <= 0) {
    return 1.0;
  }
  return std::exp2(static_cast<double>(i) / static_cast<double>(kSubBuckets));
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double clean = std::isfinite(value) && value > 0.0 ? value : 0.0;
  sum_.fetch_add(clean, std::memory_order_relaxed);
  double seen = max_.load(std::memory_order_relaxed);
  while (clean > seen && !max_.compare_exchange_weak(seen, clean, std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(double p) const {
  std::vector<int64_t> buckets(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] = bucket(i);
  }
  return PercentileFromBuckets(buckets, count(), max(), p);
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.max = histogram->max();
    h.buckets.resize(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = histogram->bucket(i);
    }
    h.p50 = PercentileFromBuckets(h.buckets, h.count, h.max, 50);
    h.p95 = PercentileFromBuckets(h.buckets, h.count, h.max, 95);
    h.p99 = PercentileFromBuckets(h.buckets, h.count, h.max, 99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

int64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

int64_t MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& start) const {
  MetricsSnapshot delta;
  delta.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    delta.counters.emplace_back(name, value - start.counter(name));
  }
  // Gauges are levels, not totals: the end-snapshot reading IS the delta-era
  // reading, so they pass through unsubtracted.
  delta.gauges = gauges;
  delta.histograms.reserve(histograms.size());
  for (const auto& h : histograms) {
    HistogramSnapshot d = h;
    if (const HistogramSnapshot* s = start.histogram(h.name)) {
      d.count -= s->count;
      d.sum -= s->sum;
      for (size_t i = 0; i < d.buckets.size() && i < s->buckets.size(); ++i) {
        d.buckets[i] -= s->buckets[i];
      }
      d.p50 = PercentileFromBuckets(d.buckets, d.count, d.max, 50);
      d.p95 = PercentileFromBuckets(d.buckets, d.count, d.max, 95);
      d.p99 = PercentileFromBuckets(d.buckets, d.count, d.max, 99);
    }
    delta.histograms.push_back(std::move(d));
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream oss;
  oss << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    oss << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  oss << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    oss << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  oss << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    oss << (first ? "\n" : ",\n") << "    \"" << h.name << "\": {\"count\": " << h.count
        << ", \"sum\": " << FormatJsonDouble(h.sum)
        << ", \"mean\": " << FormatJsonDouble(h.mean())
        << ", \"p50\": " << FormatJsonDouble(h.p50)
        << ", \"p95\": " << FormatJsonDouble(h.p95)
        << ", \"p99\": " << FormatJsonDouble(h.p99)
        << ", \"max\": " << FormatJsonDouble(h.max) << "}";
    first = false;
  }
  oss << "\n  }\n}\n";
  return oss.str();
}

}  // namespace alt
