#include "gpusim/warp_exec.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace marlin::gpusim {

namespace {
// Tensor-pipe occupancy per mma.sync(m16n8k16), in cycles. Derived from
// the A10 peak: 125 TF / 1.695 GHz / 72 SMs = 1024 FLOP/cycle/SM =
// 256 FLOP/cycle/partition; one mma is 2048 FLOPs*2 = 4096... measured as
// 16 cycles of pipe occupancy per partition on GA10x.
constexpr double kMmaIssueCycles = 16.0;
// Dependent-use latency of mma accumulators (microbenchmarked ~24-32 on
// Ampere; Sun et al. 2022).
constexpr double kMmaLatencyCycles = 24.0;
// Scheduler dispatch slots consumed per mma for companion instructions
// (dequant lop3s, shared loads, address bookkeeping).
constexpr double kAuxDispatchPerMma = 6.0;
}  // namespace

double tensor_core_utilization(const DeviceSpec& d, const WarpExecParams& p) {
  MARLIN_CHECK(p.num_warps >= 1, "need at least one warp");
  MARLIN_CHECK(p.warp_tile_m >= 1 && p.warp_tile_n >= 1, "bad warp tile");

  const int schedulers = d.warp_schedulers_per_sm;
  const double warps_per_sched =
      static_cast<double>(p.num_warps) / schedulers;

  const double m_blocks = std::ceil(p.warp_tile_m / 16.0);
  const double n_blocks = std::ceil(p.warp_tile_n / 8.0);
  const double streams = m_blocks * n_blocks;

  // (1) Dependency bound: in-flight MMAs available vs needed (Little's law).
  const double needed = kMmaLatencyCycles / kMmaIssueCycles;
  const double available = std::max(1.0, warps_per_sched) * streams;
  const double dep_util = std::min(1.0, available / needed);

  // (2) Dispatch bound: per k-step and warp, the scheduler must issue
  // streams mma + streams*aux companion instructions, one per cycle, while
  // the tensor pipe is busy streams*issue cycles. With enough warps the
  // companion stream of one warp hides under the pipe-time of the others.
  const double pipe_cycles = streams * kMmaIssueCycles;
  const double dispatch_cycles = streams * (1.0 + kAuxDispatchPerMma);
  const double busy_cycles =
      std::max(pipe_cycles,
               dispatch_cycles / std::max(1.0, warps_per_sched));
  const double dispatch_util = pipe_cycles / busy_cycles;

  return std::max(0.05, dep_util * dispatch_util);
}

}  // namespace marlin::gpusim
