// Summary statistics the benchmark reports: medians, quartiles and the
// highest percentile a sample supports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1{0};
  double q2{0};
  double q3{0};
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (the default "exclusive" method), so a spread computed here matches one
/// computed over the printed results. Needs at least two values; a single
/// value is returned as all three quartiles.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

/// Interquartile range as a share of the median (0 when the median is 0).
inline double iqr_share(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return q.q2 == 0.0 ? 0.0 : (q.q3 - q.q1) / q.q2;
}

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

struct TailPercentile {
  double percentile{0};  // e.g. 99
  double value{0};
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 that leaves at least
/// `min_beyond` samples above it: a tail figure the sample can support.
/// Empty when even the median leaves fewer than that many beyond it.
inline std::optional<TailPercentile> supported_tail(
    const std::vector<double>& v, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const double n = static_cast<double>(v.size());
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank p-th value.
    const double at = std::ceil(p / 100.0 * n);
    if (n - at >= static_cast<double>(min_beyond)) {
      return TailPercentile{p, percentile(v, p)};
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
