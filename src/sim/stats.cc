#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lazyrep::sim {

void TallyStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void TallyStat::Clear() { *this = TallyStat(); }

double TallyStat::Variance() const {
  if (count_ < 2) return 0;
  return m2_ / static_cast<double>(count_ - 1);
}

double TallyStat::StdDev() const { return std::sqrt(Variance()); }

double TallyStat::HalfWidth95() const {
  if (count_ < 2) return 0;
  // z_{0.975} = 1.959964; with the thousands of samples per study point the
  // normal approximation to the t quantile is exact to four digits.
  return 1.959964 * StdDev() / std::sqrt(static_cast<double>(count_));
}

QuantileStat::QuantileStat() : buckets_(kBuckets, 0) {}

int QuantileStat::BucketOf(double x) const {
  if (x <= kMinValue) return 0;
  int b = static_cast<int>(std::log(x / kMinValue) / std::log(kGrowth)) + 1;
  return std::min(b, kBuckets - 1);
}

double QuantileStat::BucketUpperEdge(int bucket) const {
  if (bucket == 0) return kMinValue;
  return kMinValue * std::pow(kGrowth, bucket);
}

void QuantileStat::Add(double x) {
  ++count_;
  max_ = std::max(max_, x);
  ++buckets_[BucketOf(x)];
}

void QuantileStat::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  max_ = 0;
}

double QuantileStat::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (target >= count_) target = count_ - 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > target) return BucketUpperEdge(b);
  }
  return max_;
}

void TimeWeightedStat::Start(SimTime start_time, double value) {
  start_time_ = start_time;
  last_time_ = start_time;
  value_ = value;
  integral_ = 0;
}

void TimeWeightedStat::Set(SimTime now, double value) {
  integral_ += value_ * (now - last_time_);
  last_time_ = now;
  value_ = value;
}

double TimeWeightedStat::Integral(SimTime now) const {
  return integral_ + value_ * (now - last_time_);
}

double TimeWeightedStat::Average(SimTime now) const {
  double span = now - start_time_;
  if (span <= 0) return value_;
  return Integral(now) / span;
}

void TimeWeightedStat::ResetAt(SimTime now) {
  start_time_ = now;
  last_time_ = now;
  integral_ = 0;
}

std::string FormatWithCi(const TallyStat& stat) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f ±%.4f", stat.Mean(),
                stat.HalfWidth95());
  return buf;
}

}  // namespace lazyrep::sim
