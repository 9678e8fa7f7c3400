#include "serve/parallel/interconnect.hpp"

#include "util/error.hpp"

namespace marlin::serve::parallel {

double Interconnect::transfer_seconds(double bytes) const {
  MARLIN_CHECK(bytes >= 0.0, "negative transfer size");
  return bytes / bytes_per_s + latency_s;
}

double Interconnect::allreduce_seconds(double bytes, int ranks) const {
  MARLIN_CHECK(bytes >= 0.0, "negative all-reduce size");
  MARLIN_CHECK(ranks >= 1, "all-reduce needs at least one rank");
  if (ranks == 1) return 0.0;
  const double g = static_cast<double>(ranks);
  // Ring: reduce-scatter + all-gather, each moving (g-1)/g of the payload
  // per rank across g-1 latency-bound steps.
  return 2.0 * (g - 1.0) / g * bytes / bytes_per_s +
         2.0 * (g - 1.0) * latency_s;
}

}  // namespace marlin::serve::parallel
