#pragma once
// Schedule-driven analytic timing for MARLIN and Sparse-MARLIN.
//
// The estimator prices the *same schedule* the functional kernel executes:
// the striped partition determines each SM's tile count and the serial
// reduction structure; the cp.async pipeline is simulated per SM; the warp
// model yields the sustainable tensor-core fraction; and Eq. (1) decides
// whether the kernel is bound by the GMEM weight stream or by L2 traffic.
// Calibration inputs are only public device specs plus the efficiency
// constants below (documented, shared by all figures).

#include "core/config.hpp"
#include "core/problem.hpp"
#include "gpusim/clock.hpp"
#include "gpusim/estimate.hpp"

namespace marlin::core {

struct MarlinPerfParams {
  /// Achieved fraction of GMEM peak for the streaming B reads. MARLIN's
  /// 16-byte per-thread loads of offline-reshuffled tiles hit close to
  /// peak; 0.92 matches the ~3.87x endpoint of paper Fig. 1.
  double mem_efficiency = 0.92;
  /// Cap on tensor-pipe utilisation from the dequant/scale companion work
  /// that shares issue slots with the MMAs (paper reports ~10% off peak
  /// compute in the large-batch regime).
  double tc_efficiency_cap = 0.90;
};

/// Dense MARLIN (INT4 weights, FP16 activations).
[[nodiscard]] gpusim::KernelEstimate marlin_estimate(
    const MatmulProblem& p, const KernelConfig& cfg,
    const gpusim::DeviceSpec& d, const gpusim::ClockModel& clock,
    const MarlinPerfParams& perf = {});

/// Sparse-MARLIN (INT4 + 2:4). Weight bytes shrink to 0.75x of dense INT4
/// (codes on half the positions + 2-bit metadata) and MMAs run on the
/// sparse tensor cores at sparse_tc_multiplier x throughput.
[[nodiscard]] gpusim::KernelEstimate sparse_marlin_estimate(
    const MatmulProblem& p, const KernelConfig& cfg,
    const gpusim::DeviceSpec& d, const gpusim::ClockModel& clock,
    const MarlinPerfParams& perf = {});

/// Convenience: estimate with the shape-chosen config.
[[nodiscard]] gpusim::KernelEstimate marlin_estimate_auto(
    const MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock);
[[nodiscard]] gpusim::KernelEstimate sparse_marlin_estimate_auto(
    const MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock);

}  // namespace marlin::core
