#ifndef LAZYREP_SIM_STATS_H_
#define LAZYREP_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace lazyrep::sim {

/// Running mean/variance accumulator (Welford's algorithm) with a 95%
/// confidence half-width based on the normal approximation — appropriate for
/// the sample counts used in the studies (thousands of observations).
class TallyStat {
 public:
  void Add(double x);
  void Clear();

  uint64_t Count() const { return count_; }
  double Mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; zero with fewer than two observations.
  double Variance() const;
  double StdDev() const;
  /// Half-width of the 95% confidence interval for the mean.
  double HalfWidth95() const;
  double Min() const { return count_ ? min_ : 0.0; }
  double Max() const { return count_ ? max_ : 0.0; }
  double Sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Streaming quantile summary over a bounded-resolution histogram.
///
/// Response times span ~0.1 ms to ~10 s; buckets are logarithmic with 5%
/// resolution, so p50/p95/p99 are exact to within one bucket. Memory is a
/// fixed few KB regardless of sample count.
class QuantileStat {
 public:
  QuantileStat();

  void Add(double x);
  void Clear();

  uint64_t Count() const { return count_; }
  /// Value at quantile q in [0,1] (upper edge of the containing bucket).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
  double Max() const { return max_; }

 private:
  static constexpr double kMinValue = 1e-5;  // 10 µs
  static constexpr double kGrowth = 1.05;    // 5% buckets
  static constexpr int kBuckets = 400;       // covers up to ~3000 s

  int BucketOf(double x) const;
  double BucketUpperEdge(int bucket) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double max_ = 0;
};

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// busy-server counts). Call Set whenever the value changes.
class TimeWeightedStat {
 public:
  /// Starts tracking at `start_time` with initial value `value`.
  void Start(SimTime start_time, double value = 0);

  /// Records a change of the signal to `value` at time `now`.
  void Set(SimTime now, double value);

  /// Current value of the signal.
  double Value() const { return value_; }

  /// Time average over [start, now].
  double Average(SimTime now) const;

  /// Total accumulated value-time product over [start, now].
  double Integral(SimTime now) const;

  /// Restarts accumulation at `now`, keeping the current value. Used to
  /// discard the warm-up transient.
  void ResetAt(SimTime now);

 private:
  SimTime start_time_ = 0;
  SimTime last_time_ = 0;
  double value_ = 0;
  double integral_ = 0;
};

/// Formats a mean with its 95% CI, e.g. "0.1234 ±0.0010".
std::string FormatWithCi(const TallyStat& stat);

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_STATS_H_
