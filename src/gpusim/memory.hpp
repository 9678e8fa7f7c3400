#pragma once
// Memory hierarchy traffic accounting and bandwidth timing.
//
// The functional kernels record the bytes they move at each level into
// TrafficCounters; the timing layer prices those bytes with the device
// bandwidths. L2 residency of the activation operand A — the paper's key
// Eq. (1) condition — is checked explicitly.

#include <cstdint>

#include "gpusim/device.hpp"

namespace marlin::gpusim {

struct TrafficCounters {
  std::int64_t gmem_read_bytes = 0;
  std::int64_t gmem_write_bytes = 0;
  std::int64_t l2_read_bytes = 0;   // reads served by L2 (incl. GMEM fills)
  std::int64_t smem_read_bytes = 0;
  std::int64_t smem_write_bytes = 0;

  TrafficCounters& operator+=(const TrafficCounters& o) {
    gmem_read_bytes += o.gmem_read_bytes;
    gmem_write_bytes += o.gmem_write_bytes;
    l2_read_bytes += o.l2_read_bytes;
    smem_read_bytes += o.smem_read_bytes;
    smem_write_bytes += o.smem_write_bytes;
    return *this;
  }
  [[nodiscard]] std::int64_t gmem_total() const {
    return gmem_read_bytes + gmem_write_bytes;
  }
};

/// Paper Eq. (1): global loading of A-blocks stays hidden behind the B
/// stream as long as reading both A_sm and B_sm from L2 is faster than
/// reading B_sm from GMEM:
///   (2*M*K_sm + 0.5*K_sm*N_sm) / B_l2  <  (0.5*K_sm*N_sm) / B_gl
[[nodiscard]] inline bool a_loads_hidden_by_l2(const DeviceSpec& d, double m,
                                               double k_sm, double n_sm) {
  const double lhs = (2.0 * m * k_sm + 0.5 * k_sm * n_sm) / d.l2_bytes_per_s();
  const double rhs = (0.5 * k_sm * n_sm) / d.gmem_bytes_per_s();
  return lhs < rhs;
}

}  // namespace marlin::gpusim
