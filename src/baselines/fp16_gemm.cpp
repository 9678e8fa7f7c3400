#include "baselines/fp16_gemm.hpp"

#include <algorithm>
#include <cmath>

namespace marlin::baselines {

gpusim::KernelEstimate Fp16CutlassModel::estimate(
    const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock) const {
  gpusim::KernelEstimate est;
  est.useful_flops = p.flops();

  const double mp = static_cast<double>(p.m_padded());
  const double bytes =
      2.0 * (static_cast<double>(p.k) * static_cast<double>(p.n)) +
      p.a_bytes() + p.c_bytes();
  const double t_mem =
      bytes / (d.gmem_bytes_per_s() * kFp16MemEfficiency);

  // Wave quantisation over 128 x 128 threadblock tiles.
  constexpr index_t kTileM = 128;
  constexpr index_t kTileN = 128;
  const double tiles_m =
      std::ceil(mp / static_cast<double>(
                         std::min<index_t>(kTileM, static_cast<index_t>(mp))));
  const double tiles_n =
      std::ceil(static_cast<double>(p.n) / static_cast<double>(kTileN));
  const double tiles = tiles_m * tiles_n;
  const double waves = std::ceil(tiles / d.num_sms);
  const double quant_factor =
      tiles >= d.num_sms ? waves * d.num_sms / tiles : 1.0;

  double clock_ghz = clock.effective_clock_ghz(d, 0.0);
  double t_comp = 0.0;
  for (int iter = 0; iter < 2; ++iter) {
    t_comp = 2.0 * mp * static_cast<double>(p.k) *
             static_cast<double>(p.n) * quant_factor /
             (d.tc_flops(clock_ghz) * kFp16TcEfficiency);
    clock_ghz = clock.effective_clock_ghz(
        d, std::min(t_comp, std::max(t_comp, t_mem)));
  }

  est.breakdown.mem_s = t_mem;
  est.breakdown.compute_s = t_comp;
  est.breakdown.launch_s = d.kernel_launch_s;
  est.seconds = std::max(t_mem, t_comp) + d.kernel_launch_s;
  est.effective_clock_ghz = clock_ghz;
  est.traffic.gmem_read_bytes = static_cast<std::int64_t>(
      2.0 * static_cast<double>(p.k) * static_cast<double>(p.n) +
      p.a_bytes());
  est.traffic.gmem_write_bytes = static_cast<std::int64_t>(p.c_bytes());
  return est;
}

Matrix<Half> fp16_gemm(ConstMatrixView<Half> a, ConstMatrixView<Half> b) {
  MARLIN_CHECK(a.cols() == b.rows(), "inner dims mismatch");
  Matrix<Half> c(a.rows(), b.cols());
  Matrix<float> acc(a.rows(), b.cols(), 0.0f);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const float av = a(i, k).to_float();
      if (av == 0.0f) continue;
      for (index_t j = 0; j < b.cols(); ++j) {
        acc(i, j) += av * b(k, j).to_float();
      }
    }
  }
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) c(i, j) = Half(acc(i, j));
  }
  return c;
}

}  // namespace marlin::baselines
