// Pure helpers of the serving benchmark: order statistics, the open-loop
// send schedule, and the mapping from a live server's decision counters
// back to the moment each decision was first seen. Header-only and free of
// the serving library, so tests/test_perfbench.cpp checks them directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace pegasus::perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for an
/// empty input.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

/// Nearest-rank percentile, q in [0, 100]: the smallest sample such that at
/// least q% of the samples are <= it. 0 for an empty input.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // The epsilon keeps 99.9% of 1000 at rank 999 despite binary rounding.
  const double rank =
      std::ceil(q * static_cast<double>(v.size()) / 100.0 - 1e-9);
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

/// Open-loop send schedule: capture timestamps (microseconds, ascending)
/// rescaled linearly so the packets go out at a mean of `rate_pps`, i.e.
/// (n - 1) inter-send gaps spanning (n - 1) / rate_pps seconds. Returns
/// each packet's send offset in seconds from the first one. A capture
/// whose timestamps are all equal is spread evenly instead.
inline std::vector<double> RescaleToRate(std::span<const std::uint64_t> ts_us,
                                         double rate_pps) {
  if (rate_pps <= 0.0) {
    throw std::invalid_argument("RescaleToRate: rate must be positive");
  }
  std::vector<double> out(ts_us.size(), 0.0);
  if (ts_us.size() < 2) return out;
  const double target_s = static_cast<double>(ts_us.size() - 1) / rate_pps;
  const std::uint64_t first = ts_us.front();
  const std::uint64_t span = ts_us.back() - first;
  for (std::size_t i = 0; i < ts_us.size(); ++i) {
    if (ts_us[i] < first || (i > 0 && ts_us[i] < ts_us[i - 1])) {
      throw std::invalid_argument("RescaleToRate: timestamps not ascending");
    }
    out[i] = span == 0
                 ? target_s * static_cast<double>(i) /
                       static_cast<double>(ts_us.size() - 1)
                 : target_s * static_cast<double>(ts_us[i] - first) /
                       static_cast<double>(span);
  }
  return out;
}

/// Observations of a running server's per-shard decision counters: at
/// time t[k] shard s had emitted counts[k * shards + s] decisions. Times
/// and every shard's counts are non-decreasing.
class PollLog {
 public:
  explicit PollLog(std::size_t shards) : shards_(shards) {}

  std::size_t shards() const { return shards_; }
  std::size_t size() const { return t_.size(); }
  double time(std::size_t k) const { return t_[k]; }
  std::uint64_t count(std::size_t k, std::size_t s) const {
    return counts_[k * shards_ + s];
  }

  /// Records one observation; `counts` holds one entry per shard.
  void Add(double t, std::span<const std::uint64_t> counts) {
    if (counts.size() != shards_) {
      throw std::invalid_argument("PollLog::Add: one count per shard");
    }
    t_.push_back(t);
    counts_.insert(counts_.end(), counts.begin(), counts.end());
  }

 private:
  std::size_t shards_;
  std::vector<double> t_;
  std::vector<std::uint64_t> counts_;
};

/// When each decision was first seen. `shard_of` lists the shard of every
/// decision in the server's shard-major output order (within a shard:
/// processing order), so the j-th decision of shard s is the one that
/// moved that shard's counter past j. Returns the time of the first poll
/// whose count for s exceeds j, or NaN when no poll saw it.
inline std::vector<double> SeenTimes(std::span<const std::uint32_t> shard_of,
                                     const PollLog& log) {
  std::vector<double> seen(shard_of.size(),
                           std::numeric_limits<double>::quiet_NaN());
  std::vector<std::uint64_t> rank(log.shards(), 0);
  std::vector<std::size_t> poll(log.shards(), 0);
  for (std::size_t i = 0; i < shard_of.size(); ++i) {
    const std::size_t s = shard_of[i];
    if (s >= log.shards()) {
      throw std::out_of_range("SeenTimes: shard out of range");
    }
    const std::uint64_t j = rank[s]++;
    std::size_t& k = poll[s];
    while (k < log.size() && log.count(k, s) <= j) ++k;
    if (k < log.size()) seen[i] = log.time(k);
  }
  return seen;
}

}  // namespace pegasus::perfbench
