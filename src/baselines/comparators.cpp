#include "baselines/comparators.hpp"

#include <algorithm>
#include <cmath>

namespace marlin::baselines {

ComparatorParams torch_int4_params() {
  ComparatorParams p;
  p.name = "torch-int4";
  p.mem_efficiency = 0.86;
  p.m_tile = 32;
  p.uses_tensor_cores = true;
  p.compute_efficiency = 0.60;
  p.dequant_cycles_per_weight = 5.0;
  p.dequant_overlap = 0.70;
  return p;
}

ComparatorParams exllamav2_params() {
  ComparatorParams p;
  p.name = "exllamav2";
  p.mem_efficiency = 0.88;
  p.m_tile = 16;
  p.uses_tensor_cores = true;
  p.compute_efficiency = 0.45;
  p.dequant_cycles_per_weight = 4.0;
  p.dequant_overlap = 0.70;
  return p;
}

ComparatorParams awq_params() {
  ComparatorParams p;
  p.name = "awq";
  p.mem_efficiency = 0.84;
  p.m_tile = 16;
  p.uses_tensor_cores = true;
  p.compute_efficiency = 0.40;
  p.dequant_cycles_per_weight = 6.0;
  p.dequant_overlap = 0.60;
  return p;
}

ComparatorParams bitsandbytes_params() {
  ComparatorParams p;
  p.name = "bitsandbytes";
  p.mem_efficiency = 0.55;
  p.m_tile = 8;
  p.uses_tensor_cores = false;
  p.compute_efficiency = 0.50;
  p.dequant_cycles_per_weight = 8.0;
  p.dequant_overlap = 0.50;
  return p;
}

gpusim::KernelEstimate ComparatorModel::estimate(
    const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock) const {
  p.validate();
  gpusim::KernelEstimate est;
  est.useful_flops = p.flops();
  const double clock_ghz = clock.effective_clock_ghz(d, 1e9);  // sustained
  est.effective_clock_ghz = clock_ghz;

  // Tensor-core kernels pay mma granularity (M padded to 16); CUDA-core
  // kernels (bitsandbytes) process the actual rows.
  const double mp = params_.uses_tensor_cores
                        ? static_cast<double>(p.m_padded())
                        : static_cast<double>(p.m);
  // B is re-streamed and re-dequantised once per M-tile.
  const double rereads =
      std::max(1.0, std::ceil(mp / static_cast<double>(params_.m_tile)));

  const double b_bytes = p.weight_bytes();
  const double bytes = rereads * b_bytes + p.a_bytes() + p.c_bytes();
  const double t_mem =
      bytes / (d.gmem_bytes_per_s() * params_.mem_efficiency);

  const double peak = params_.uses_tensor_cores ? d.tc_flops(clock_ghz)
                                                : d.fma_flops(clock_ghz);
  const double t_comp = 2.0 * mp * static_cast<double>(p.k) *
                        static_cast<double>(p.n) /
                        (peak * params_.compute_efficiency);

  // CUDA-core dequant: ops throughput is one op per FMA lane per cycle.
  const double cuda_ops_per_s = d.fma_flops(clock_ghz) / 2.0;
  const double t_deq = rereads * static_cast<double>(p.k) *
                       static_cast<double>(p.n) *
                       params_.dequant_cycles_per_weight / cuda_ops_per_s;

  est.breakdown.mem_s = t_mem;
  est.breakdown.compute_s = t_comp;
  est.breakdown.dequant_s = (1.0 - params_.dequant_overlap) * t_deq;
  est.breakdown.launch_s = d.kernel_launch_s;
  est.seconds = std::max(t_mem, t_comp) + est.breakdown.dequant_s +
                d.kernel_launch_s;
  est.traffic.gmem_read_bytes =
      static_cast<std::int64_t>(rereads * b_bytes + p.a_bytes());
  est.traffic.gmem_write_bytes = static_cast<std::int64_t>(p.c_bytes());
  return est;
}

}  // namespace marlin::baselines
