#pragma once
// Small statistics helpers shared by tests, the eval module, and the serving
// simulator's latency metrics.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace marlin {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);

/// p in [0, 100]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// ||a - b||_F / ||a||_F over float spans; 0/0 -> 0.
[[nodiscard]] double relative_frobenius_error(std::span<const float> a,
                                              std::span<const float> b);

}  // namespace marlin
