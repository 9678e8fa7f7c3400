#pragma once
// Functional (bit-faithful) execution of the dense MARLIN kernel on the
// host simulator.
//
// The kernel is executed exactly as the CUDA implementation schedules it:
//   * the B tile grid is cut into striped per-SM workloads (Figure 5);
//   * within a tile, warps own fixed-width-64 subtiles and split the K_sm
//     slabs (Figure 4 / Algorithm 1), accumulating FP32 partials;
//   * B fragments are unpacked per thread from the 16-byte reshuffled
//     vectors and dequantised with the exact lop3/packed-FP16 bit trick;
//   * grouped scales are applied at dequantisation time (FP16), per-column
//     scales once at output;
//   * warps tree-reduce their partials (logarithmic shared-memory
//     reduction), then column partials are serially reduced bottom-to-top
//     in FP16 directly in the output buffer — the lock-buffer protocol.
// Data traffic at each memory level is recorded as the kernel runs; the
// timing layer prices the identical schedule.
//
// On the host, SM workloads run on the SimContext's shared pool (they are
// data-parallel; the serial FP16 reduction is performed as an ordered
// second phase, which is the same dataflow the GPU lock buffer enforces),
// so results are bit-identical at every thread count. That launch —
// partition, stripe execution, reduction — is `run_striped`, shared with
// the Sparse-MARLIN kernel.

#include <algorithm>
#include <functional>
#include <span>

#include "core/config.hpp"
#include "core/partition.hpp"
#include "gpusim/memory.hpp"
#include "layout/repack.hpp"
#include "util/matrix.hpp"
#include "util/sim_context.hpp"

namespace marlin::core {

struct FunctionalResult {
  Matrix<Half> c;
  gpusim::TrafficCounters traffic;
  index_t reduction_steps = 0;
  index_t tiles_processed = 0;
  index_t max_stripe_len = 0;
};

/// The B tile grid of one functional launch (paper §3.4): K in 64-row
/// tiles, N in `n_sm_tile`-wide columns, and one virtual copy of the grid
/// per `m_block` rows of A. The output block a tile contributes to is keyed
/// m_block * tile_cols + col, as in StripedPartition::segments. The
/// constructor rejects shapes neither kernel can run.
struct TileGrid {
  TileGrid(index_t m, index_t k, index_t n, const KernelConfig& cfg);

  index_t m = 0, k = 0, n = 0;
  index_t n_sm_tile = 0, m_block = 0;
  index_t tile_rows = 0, tile_cols = 0, m_blocks = 0;

  [[nodiscard]] index_t key(const TileCoord& t) const {
    return t.m_block * tile_cols + t.col;
  }
  /// Width of tile column `col` (the last one may be narrower).
  [[nodiscard]] index_t tile_width(index_t col) const {
    return std::min(n_sm_tile, n - col * n_sm_tile);
  }
  /// Rows of A in batch block `mb` (the last one may be shorter).
  [[nodiscard]] index_t m_rows(index_t mb) const {
    return std::min(m_block, m - mb * m_block);
  }
};

/// A kernel's main loop over one SM's segment: the consecutive tiles of one
/// output block in that SM's stripe, top to bottom. Returns the block's
/// FP32 partial (grid.m_rows x grid.tile_width) and adds the bytes it
/// moves to `traffic`.
using SegmentFn = std::function<Matrix<float>(
    std::span<const TileCoord> tiles, gpusim::TrafficCounters& traffic)>;

/// The striped launch both functional kernels share. Cuts `grid` into
/// `num_sms` stripes (striped_partition), runs `run_segment` on every
/// segment of every stripe with the SMs spread over `ctx`'s pool, and sums
/// their traffic plus one GMEM read of A. Then reduces each output block's
/// partials serially, bottom to top, in FP16 in the output (the lock
/// buffer), through simd::ops(). A non-empty `column_scale` (one float per
/// output column) multiplies each partial at write-out.
FunctionalResult run_striped(const TileGrid& grid, int num_sms,
                             const SimContext& ctx,
                             const SegmentFn& run_segment,
                             std::span<const float> column_scale = {});

/// C = A * dequant(B). A is M x K FP16; B is the repacked MARLIN weight
/// stream. `num_sms` controls the striped partition (use the target
/// device's SM count); `ctx` parallelises SM execution on its shared pool
/// (the default serial context runs inline).
FunctionalResult marlin_matmul(
    ConstMatrixView<Half> a, const layout::MarlinWeights& b,
    const KernelConfig& cfg, int num_sms,
    const SimContext& ctx = SimContext::serial_context());

/// Reference: plain FP32-accumulate GEMM over the dequantised weights.
/// Rows are independent; `ctx` fans them out with bit-identical results.
Matrix<float> reference_matmul(
    ConstMatrixView<Half> a, ConstMatrixView<float> w,
    const SimContext& ctx = SimContext::serial_context());

}  // namespace marlin::core
