#include "util/stats.hpp"

namespace marlin {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  MARLIN_CHECK(!xs.empty(), "percentile of empty sample");
  MARLIN_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double relative_frobenius_error(std::span<const float> a,
                                std::span<const float> b) {
  MARLIN_CHECK(a.size() == b.size(), "size mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : HUGE_VAL;
  return std::sqrt(num / den);
}

}  // namespace marlin
