#pragma once
// Common interface for every kernel timing model the benchmarks compare:
// MARLIN, Sparse-MARLIN, the FP16 CUTLASS-like baseline, the four
// open-source 4-bit comparators, and the ideal roofline bounds.

#include <memory>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "gpusim/clock.hpp"
#include "gpusim/estimate.hpp"
#include "util/sim_context.hpp"

namespace marlin::baselines {

class KernelModel {
 public:
  virtual ~KernelModel() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual gpusim::KernelEstimate estimate(
      const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
      const gpusim::ClockModel& clock) const = 0;

  /// Estimates every sweep point, fanned out on the context's pool; models
  /// are stateless so points are independent, and results come back in
  /// point order regardless of the thread count.
  [[nodiscard]] std::vector<gpusim::KernelEstimate> estimate_sweep(
      const SimContext& ctx, const std::vector<core::MatmulProblem>& points,
      const gpusim::DeviceSpec& d, const gpusim::ClockModel& clock) const;
};

using KernelModelPtr = std::unique_ptr<KernelModel>;

/// "fp16", "marlin", "sparse-marlin", "torch-int4", "exllamav2", "awq",
/// "bitsandbytes", "ideal-dense", "ideal-int4", "ideal-sparse".
KernelModelPtr make_kernel_model(const std::string& name);

}  // namespace marlin::baselines
