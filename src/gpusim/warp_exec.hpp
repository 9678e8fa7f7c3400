#pragma once
// Warp-level tensor-core utilisation model (paper §3.4 "Warp Layout").
//
// An Ampere SM has four scheduler partitions, each with one tensor pipe.
// A warp working on an Mwa x Nwa output tile advances all of its
// accumulators by one k-step (k=16) per round, issuing
//   streams = ceil(Mwa/16) * ceil(Nwa/8)
// independent mma.sync ops. Ops in the *next* round depend on the same
// accumulators, so a warp alone can keep at most `streams` MMAs in flight.
// By Little's law the pipe saturates when
//   (warps per scheduler) * streams * issue_cycles >= latency_cycles.
// Narrow warp tiles (small Nwa) reduce `streams` and stall the pipe — this
// is exactly why MARLIN fixes the warp tile width at 64 and splits across
// K_sm instead (Figure 4 / Algorithm 1).
//
// Each mma also needs companion work (lop3 dequantisation of the next B
// fragment, ldmatrix for A, addressing) that issues on the scheduler's
// single dispatch port; with too few warps this dispatch stream cannot be
// hidden either.

#include "gpusim/device.hpp"

namespace marlin::gpusim {

struct WarpExecParams {
  int num_warps = 8;   // warps per SM working on the tile
  int warp_tile_m = 16;
  int warp_tile_n = 64;
};

/// Fraction of tensor-core peak sustainable with this configuration, in
/// (0, 1]. Monotone non-decreasing in num_warps and warp_tile_n.
[[nodiscard]] double tensor_core_utilization(const DeviceSpec& d,
                                             const WarpExecParams& p);

}  // namespace marlin::gpusim
