// Log-bucketed latency histogram: the metrics plane's workhorse.
//
// Values are binned HDR-style into log2 major buckets subdivided linearly
// (kSubBits sub-buckets per octave, ~100/2^kSubBits % relative resolution).
// add() is allocation-free and O(1) — a clz, a shift, an increment — so
// summarizing a run bins every delivery cheaply. Percentiles
// are reconstructed from bucket midpoints (upper-bounded by the exact
// observed max), which makes them deterministic, merge-stable, and
// independent of insertion order: two histograms with the same multiset of
// values are operator== equal, and merge() is exact (bucket-count sums), so
// sweeps can combine per-seed histograms without re-scanning any trace.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/time.hpp"

namespace wanmc::metrics {

class LogHistogram {
 public:
  // 8 sub-buckets per octave: <= 12.5% relative bucket width. Values up to
  // 2^40us (~13 simulated days) land in distinct octaves; SimTime latencies
  // beyond that clamp into the top bucket.
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = (kOctaves + 1) * kSub;

  void add(SimTime v) {
    if (v < 0) v = 0;
    ++counts_[bucketOf(static_cast<uint64_t>(v))];
    ++count_;
    sum_ += static_cast<uint64_t>(v);
    if (v > max_) max_ = v;
  }

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] SimTime max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  // ceil(q * count)-th smallest sample, clamped to the exact max. 0 when
  // empty. Deterministic: depends only on the bucket counts.
  [[nodiscard]] SimTime percentile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(count_) + 0.5);
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[static_cast<size_t>(b)];
      if (seen >= rank) {
        const SimTime mid = bucketMid(b);
        return mid < max_ ? mid : max_;
      }
    }
    return max_;
  }

  // Exact: bucket-wise sum. merge(a); merge(b) == merge(b); merge(a).
  void merge(const LogHistogram& other) {
    for (int b = 0; b < kBuckets; ++b)
      counts_[static_cast<size_t>(b)] += other.counts_[static_cast<size_t>(b)];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  static int bucketOf(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);  // first octave: exact
    const int octave = 63 - __builtin_clzll(v);
    const int sub =
        static_cast<int>((v >> (octave - kSubBits)) & (kSub - 1));
    const int idx = octave - kSubBits + 1;  // idx 1 starts after exact range
    const int bucket = idx * kSub + sub;
    return bucket < kBuckets ? bucket : kBuckets - 1;
  }

  // Midpoint of bucket b's value range (lower bound for the exact octave).
  static SimTime bucketMid(int b) {
    if (b < kSub) return b;
    const int idx = b / kSub;
    const int sub = b % kSub;
    const int octave = idx + kSubBits - 1;
    const uint64_t lo = (uint64_t{1} << octave) +
                        (static_cast<uint64_t>(sub) << (octave - kSubBits));
    const uint64_t width = uint64_t{1} << (octave - kSubBits);
    return static_cast<SimTime>(lo + width / 2);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  SimTime max_ = 0;
};

}  // namespace wanmc::metrics
