// Metrics registry: named counters, gauges, and log-linear histograms with near-zero
// hot-path cost.
//
// Instruments resolve ONCE (a registry lookup under a mutex, at wiring time) into raw
// pointers the hot path increments with relaxed atomics — one uncontended `lock xadd` on the
// real-clock runtime, indistinguishable from a plain increment on the single-threaded
// simulator. Nothing here touches an Endpoint's RNG, clock, or CpuMeter, so compiling the
// instrumentation in cannot perturb a deterministic simulation: the sim benches stay
// byte-identical with metrics enabled.
//
// Export (Prometheus text exposition / JSON, see obs/export.h) walks the registry under its
// mutex and reads every atomic; an admin thread can scrape while loop threads increment.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace bft {

// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that goes up and down (current view, log size, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-linear histogram over uint64 values (latencies in clock ticks, batch sizes, bytes).
//
// Values 0..3 get exact buckets; above that, each power-of-two range splits into 4 linear
// sub-buckets (HdrHistogram's scheme with 2 significant bits), so any recorded value lands
// within ~25% of its bucket's bound at 260 fixed slots — Record() is two relaxed adds and a
// bit-scan, no allocation, no locks.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;  // linear slices per power of two
  static constexpr int kNumBuckets = 4 + 62 * kSubBuckets;

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int index) const {
    return buckets_[static_cast<size_t>(index)].load(std::memory_order_relaxed);
  }

  // Upper bound (inclusive) of the bucket holding the pct-th percentile of recorded values;
  // 0 when empty. Approximate by construction — exact sample percentiles come from
  // PercentileOf below.
  uint64_t Percentile(double pct) const;

  static int BucketIndex(uint64_t v) {
    if (v < 4) {
      return static_cast<int>(v);
    }
    int e = 63 - CountLeadingZeros(v);  // v in [2^e, 2^(e+1)), e >= 2
    int sub = static_cast<int>((v >> (e - 2)) & 3);
    return (e - 1) * kSubBuckets + sub;
  }

  static uint64_t BucketUpperBound(int index) {
    if (index < 4) {
      return static_cast<uint64_t>(index);
    }
    int e = index / kSubBuckets + 1;
    int sub = index % kSubBuckets;
    return ((static_cast<uint64_t>(sub) + 5) << (e - 2)) - 1;
  }

 private:
  static int CountLeadingZeros(uint64_t v) { return __builtin_clzll(v); }

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// Exact percentile over raw samples: index = size*pct/100 clamped to the last element,
// selected in place with nth_element. The closed-loop runner's group_p99 goes through it, so
// the deterministic benches' expected outputs depend on it not drifting.
template <typename T>
T PercentileOf(std::vector<T>& samples, int pct) {
  if (samples.empty()) {
    return T{};
  }
  size_t index = samples.size() * static_cast<size_t>(pct) / 100;
  index = index < samples.size() ? index : samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[static_cast<ptrdiff_t>(index)];
}

// Registry of named instruments. Series identity is (name, labels) where `labels` is a
// preformatted Prometheus label list without braces, e.g. `node="2",type="prepare"`.
// Get* registers on first use and returns the same stable pointer thereafter; pointers
// remain valid for the registry's lifetime. Probes are read-at-export-time callbacks for
// values owned elsewhere (AuthContext's cache counters, replica gauges).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& labels = "");
  void RegisterProbe(const std::string& name, const std::string& labels,
                     std::function<uint64_t()> read);

  // Prometheus text exposition format (one `# TYPE` line per family; histograms emit
  // cumulative `_bucket{le=...}` series plus `_sum`/`_count`).
  std::string RenderPrometheusText() const;
  // The same data as one JSON object: {"series": {"name{labels}": value, ...},
  // "histograms": {"name{labels}": {"count": c, "sum": s, "p50": ..., "p99": ...}}}.
  std::string RenderJson() const;

  // Calls fn(name, labels, value) for every counter, gauge, and probe (not histograms).
  void VisitScalars(
      const std::function<void(const std::string&, const std::string&, int64_t)>& fn) const;

  // Process-wide default. Replica/Client/transports resolve their instruments here at
  // construction so increments are always valid; harnesses that want an isolated, exportable
  // view re-install their components into a registry they own.
  static MetricsRegistry& Process();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kProbe };
  struct Series {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> probe;
  };

  Series* FindOrCreate(const std::string& name, const std::string& labels, Kind kind);

  mutable Mutex mu_;
  // name -> labels -> series; ordered so exports are stable for tests and diffing. Export
  // walks (and probes fire) under mu_, so RegisterProbe replacing a probe — CrashReplica
  // freezing a dying replica's counters — can never race a probe still reading that replica.
  std::map<std::string, std::map<std::string, Series>> families_ BFT_GUARDED_BY(mu_);
};

}  // namespace bft

#endif  // SRC_OBS_METRICS_H_
