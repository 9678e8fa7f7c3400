#include "baselines/ideal.hpp"

#include <algorithm>

#include "baselines/fp16_gemm.hpp"

namespace marlin::baselines {

gpusim::KernelEstimate IdealModel::estimate(
    const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock) const {
  gpusim::KernelEstimate est;
  est.useful_flops = p.flops();
  const double clock_ghz = clock.effective_clock_ghz(d, 1e9);  // sustained
  est.effective_clock_ghz = clock_ghz;

  const double b_bytes = weight_bits_ / 8.0 * static_cast<double>(p.k) *
                         static_cast<double>(p.n);
  const double bytes = b_bytes + p.a_bytes() + p.c_bytes();
  const double t_mem = bytes / (d.gmem_bytes_per_s() * kFp16MemEfficiency);

  const double tc_mult = sparse_ ? d.sparse_tc_multiplier : 1.0;
  const double t_comp = 2.0 * static_cast<double>(p.m_padded()) *
                        static_cast<double>(p.k) * static_cast<double>(p.n) /
                        (d.tc_flops(clock_ghz) * tc_mult *
                         kFp16TcEfficiency);

  est.breakdown.mem_s = t_mem;
  est.breakdown.compute_s = t_comp;
  est.seconds = std::max(t_mem, t_comp);
  est.traffic.gmem_read_bytes =
      static_cast<std::int64_t>(b_bytes + p.a_bytes());
  est.traffic.gmem_write_bytes = static_cast<std::int64_t>(p.c_bytes());
  return est;
}

KernelModelPtr ideal_dense_fp16() {
  return std::make_unique<IdealModel>("ideal-dense", 16.0, false);
}

KernelModelPtr ideal_int4_g128() {
  // 4 bits + FP16 scale per 128 weights = 4.125 bits (paper: 3.87x bound).
  return std::make_unique<IdealModel>("ideal-int4", 4.125, false);
}

KernelModelPtr ideal_sparse_int4_g128() {
  // 2 bits of codes + 1 bit metadata + 0.125 scale = 3.125 bits.
  return std::make_unique<IdealModel>("ideal-sparse", 3.125, true);
}

}  // namespace marlin::baselines
