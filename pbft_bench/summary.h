// Sample summaries for the PBFT benchmark: fractional percentiles reported together with
// their sample count and the number of samples beyond them.
//
// src/obs/metrics.h's PercentileOf takes an integer percentile and a nearest-rank index; a
// benchmark that reports p99.9 or a median of ten runs needs fractional percentiles with
// interpolation, and a reader needs to know how many samples stand behind each number. This
// helper is bench-local on purpose: the library's percentile formula is pinned by tests.
#ifndef PBFT_BENCH_SUMMARY_H_
#define PBFT_BENCH_SUMMARY_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace pbft_bench {

class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }

  // Linear interpolation between the two closest ranks (the "type 7" estimator Python's
  // statistics.quantiles(method="inclusive") and numpy use); 0 when empty.
  double Percentile(double pct) {
    if (values_.empty()) {
      return 0;
    }
    Sort();
    double h = (static_cast<double>(values_.size()) - 1) * std::clamp(pct, 0.0, 100.0) / 100.0;
    size_t lo = static_cast<size_t>(std::floor(h));
    size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (h - static_cast<double>(lo)) * (values_[hi] - values_[lo]);
  }

  // Samples strictly greater than `value`.
  size_t Beyond(double value) {
    Sort();
    return static_cast<size_t>(values_.end() -
                               std::upper_bound(values_.begin(), values_.end(), value));
  }

  double Mean() const {
    if (values_.empty()) {
      return 0;
    }
    double sum = 0;
    for (double v : values_) {
      sum += v;
    }
    return sum / static_cast<double>(values_.size());
  }

  double Max() {
    Sort();
    return values_.empty() ? 0 : values_.back();
  }

  // "p90=812.3 (n=48213, 4821 beyond)": a percentile never travels without its support.
  std::string Describe(double pct, const char* unit) {
    double v = Percentile(pct);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "p%g=%.1f%s (n=%zu, %zu beyond)", pct, v, unit, count(),
                  Beyond(v));
    return buf;
  }

 private:
  void Sort() {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace pbft_bench

#endif  // PBFT_BENCH_SUMMARY_H_
