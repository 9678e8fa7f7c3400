#include "core/marlin_kernel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "layout/fragment.hpp"
#include "quant/dequant_trick.hpp"
#include "quant/pack.hpp"
#include "util/simd_ops.hpp"

namespace marlin::core {

namespace {

using layout::MarlinWeights;

/// Static maps driving the plane-major weight-block assembly. A (slab,
/// chunk) block's 128 packed registers are contiguous (register index
/// reg = lane * 4 + block); nibble position ("plane") p of register reg
/// holds logical weight w_of_p[p].
struct AssembleTables {
  /// dst[p * 128 + reg] = row * 64 + col inside the 16x64 output block.
  std::array<int, 1024> dst;
  /// halfsel[p]: which 8-column half of the thread group the plane's
  /// logical weight addresses ((w & 4) ? 1 : 0).
  std::array<int, 8> halfsel;
  /// ppos[half * 128 + reg] = packed scale/zero column within the chunk
  /// (tg * 8 + 2 * block + half).
  std::array<int, 256> ppos;
};

const AssembleTables& assemble_tables() {
  static const AssembleTables tables = [] {
    AssembleTables t{};
    // Invert the pack interleave: nibble p stores logical weight w_of_p[p].
    std::array<int, 8> w_of_p{};
    for (int w = 0; w < 8; ++w) {
      w_of_p[static_cast<std::size_t>(
          quant::kInterleaveNibbleOfLogical[static_cast<std::size_t>(w)])] = w;
    }
    for (int p = 0; p < 8; ++p) {
      const int w = w_of_p[static_cast<std::size_t>(p)];
      t.halfsel[static_cast<std::size_t>(p)] = (w & 4) ? 1 : 0;
      for (int lane = 0; lane < 32; ++lane) {
        for (int block = 0; block < 4; ++block) {
          const layout::Coord c = layout::weight_block16_coord(lane, w);
          t.dst[static_cast<std::size_t>(p * 128 + lane * 4 + block)] =
              c.row * 64 + block * 16 + c.col;
        }
      }
    }
    for (int half = 0; half < 2; ++half) {
      for (int lane = 0; lane < 32; ++lane) {
        for (int block = 0; block < 4; ++block) {
          t.ppos[static_cast<std::size_t>(half * 128 + lane * 4 + block)] =
              (lane >> 2) * 8 + 2 * block + half;
        }
      }
    }
    return t;
  }();
  return tables;
}

/// Per-SM scratch for assemble_weight_block (lives on run_sm's stack).
struct AssembleScratch {
  float planes[1024];  ///< plane-major dequantised nibbles
  float shift2[256];   ///< per-half zero-point shift (asym only)
  float scale2[256];   ///< per-half group scale (grouped only)
};

/// Dequantise the 16 x 64 weight block (slab, chunk) from the packed
/// per-thread fragments, applying grouped scales if configured. Plane-major
/// so the nibble extraction and scale application vectorize; the per-element
/// float operations (shift add, scale multiply) are exactly those of the
/// scalar reference, so results are bit-identical at every SIMD level.
void assemble_weight_block(const MarlinWeights& b, index_t slab, index_t chunk,
                           bool grouped, const simd::Ops& o,
                           AssembleScratch& scr, float out[16][64]) {
  const AssembleTables& t = assemble_tables();
  // Only AWQ weights take the asymmetric branch, and only tests run them
  // (Awq.FunctionalKernelComputesXW).
  const bool asym = b.asymmetric();
  const std::uint32_t* regs = &b.packed[b.packed_index(slab, chunk, 0, 0)];
  o.dequant_u4_planes(128, regs, scr.planes);

  if (asym || grouped) {
    // The repack guarantees group_size % 16 == 0 (or per-column), so the
    // group index is constant across the slab's 16 rows.
    const index_t g = b.cfg.group_of_row(slab * 16);
    for (int i = 0; i < 256; ++i) {
      const index_t col = chunk * 64 + t.ppos[static_cast<std::size_t>(i)];
      if (asym) {
        scr.shift2[i] = 8.0f - static_cast<float>(b.zeros_packed(g, col));
      }
      if (grouped) {
        scr.scale2[i] = b.scales_packed(g, col).to_float();
      }
    }
  }

  float* const o0 = &out[0][0];
  for (int p = 0; p < 8; ++p) {
    float* plane = scr.planes + p * 128;
    const int half = t.halfsel[static_cast<std::size_t>(p)];
    if (asym) o.add_f32(128, scr.shift2 + half * 128, plane);
    if (grouped) o.mul_f32(128, scr.scale2 + half * 128, plane);
    const int* dst = t.dst.data() + p * 128;
    for (int reg = 0; reg < 128; ++reg) o0[dst[reg]] = plane[reg];
  }
}

/// Logarithmic shared-memory reduction of the warp partials of one subtile
/// (paper: Harris 2007), recording SMEM traffic.
void warp_tree_reduce(std::vector<Matrix<float>>& parts,
                      gpusim::TrafficCounters& traffic, const simd::Ops& o) {
  index_t active = static_cast<index_t>(parts.size());
  while (active > 1) {
    const index_t half = (active + 1) / 2;
    for (index_t i = 0; i + half < active; ++i) {
      auto& dst = parts[static_cast<std::size_t>(i)];
      const auto& src = parts[static_cast<std::size_t>(i + half)];
      o.add_f32(static_cast<std::size_t>(dst.size()), &src(0, 0), &dst(0, 0));
      const std::int64_t bytes = dst.size() * 4;
      traffic.smem_read_bytes += bytes;
      traffic.smem_write_bytes += bytes;
    }
    active = half;
  }
}

/// One SM's segment of one output block: the warp-split dequant/MMA loop
/// over its tiles, then the warps' tree reduction into the block's partial.
Matrix<float> run_segment(ConstMatrixView<Half> a, const MarlinWeights& b,
                          const KernelConfig& cfg, const TileGrid& grid,
                          std::span<const TileCoord> tiles,
                          gpusim::TrafficCounters& traffic) {
  const bool grouped = b.cfg.group_size != quant::kPerColumn;
  const simd::Ops& o = simd::ops();

  const index_t scale_groups_bytes_per_tile =
      grouped ? (64 / b.cfg.group_size + 1) * 2 : 0;  // upper bound per col

  const index_t col = tiles.front().col;
  const index_t mb = tiles.front().m_block;
  const index_t width = grid.tile_width(col);
  const index_t m0 = mb * grid.m_block;
  const index_t m_rows = grid.m_rows(mb);
  const int n_subtiles = static_cast<int>(width / 64);
  MARLIN_CHECK(cfg.num_warps >= n_subtiles,
               "need at least one warp per 64-wide subtile");
  const int warps_per_sub = cfg.num_warps / n_subtiles;
  // Per warp: FP32 accumulator of its 64-wide subtile.
  std::vector<Matrix<float>> warp_acc(static_cast<std::size_t>(cfg.num_warps),
                                      Matrix<float>(m_rows, 64, 0.0f));

  float wblock[16][64];
  float afl[16];
  AssembleScratch scratch;

  for (const TileCoord& t : tiles) {
    // --- B tile load (streamed once, evict-first). ---
    traffic.gmem_read_bytes += 64 * width / 2;
    if (grouped) {
      traffic.gmem_read_bytes += scale_groups_bytes_per_tile * width;
    }
    // --- A block re-read through L2. ---
    traffic.l2_read_bytes += m_rows * 64 * 2;

    // --- Tensor-core main loop: slabs x subtiles, split across warps. ---
    const index_t k0 = t.row * 64;
    for (int s = 0; s < 4; ++s) {  // 4 slabs of 16 reduction rows
      const index_t slab = t.row * 4 + s;
      for (int j = 0; j < n_subtiles; ++j) {
        const index_t chunk = (col * grid.n_sm_tile) / 64 + j;
        // Warp owning (slab s, subtile j) per Algorithm 1.
        const int rank = s % warps_per_sub;
        const int warp = j + rank * n_subtiles;
        auto& acc = warp_acc[static_cast<std::size_t>(warp)];

        assemble_weight_block(b, slab, chunk, grouped, o, scratch, wblock);
        // mma.sync emulation: FP16 inputs, FP32 accumulate. The axpy runs
        // across the 64 independent output columns — the k reduction order
        // is unchanged, so accumulation stays bit-identical.
        for (index_t r = 0; r < m_rows; ++r) {
          o.f16_to_f32(16, half_bits_ptr(&a(m0 + r, k0 + s * 16)), afl);
          float* crow = &acc(r, 0);
          for (int kk = 0; kk < 16; ++kk) {
            const float av = afl[kk];
            if (av == 0.0f) continue;
            o.axpy_f32(64, av, wblock[kk], crow);
          }
        }
      }
    }
  }

  // Tree-reduce the k-split warps of each subtile, then concatenate.
  Matrix<float> acc(m_rows, width);
  for (int j = 0; j < n_subtiles; ++j) {
    std::vector<Matrix<float>> parts;
    for (int w = j; w < cfg.num_warps; w += n_subtiles) {
      parts.push_back(std::move(warp_acc[static_cast<std::size_t>(w)]));
    }
    warp_tree_reduce(parts, traffic, o);
    for (index_t r = 0; r < m_rows; ++r) {
      for (index_t c = 0; c < 64; ++c) {
        acc(r, j * 64 + c) = parts[0](r, c);
      }
    }
  }
  return acc;
}

}  // namespace

Matrix<float> reference_matmul(ConstMatrixView<Half> a,
                               ConstMatrixView<float> w,
                               const SimContext& ctx) {
  MARLIN_CHECK(a.cols() == w.rows(), "inner dims mismatch");
  Matrix<float> c(a.rows(), w.cols(), 0.0f);
  const simd::Ops& o = simd::ops();
  ctx.parallel_for(0, a.rows(), [&](std::int64_t i) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const float av = a(i, k).to_float();
      if (av == 0.0f) continue;
      o.axpy_f32(static_cast<std::size_t>(w.cols()), av, &w(k, 0), &c(i, 0));
    }
  });
  return c;
}

TileGrid::TileGrid(index_t m, index_t k, index_t n, const KernelConfig& cfg)
    : m(m), k(k), n(n), n_sm_tile(cfg.n_sm_tile), m_block(cfg.m_block) {
  MARLIN_CHECK(k % 64 == 0, "K must be divisible by 64");
  MARLIN_CHECK(n % 64 == 0, "N must be divisible by 64");
  MARLIN_CHECK(n_sm_tile >= 1, "N_sm tile must be positive, got " << n_sm_tile);
  MARLIN_CHECK(m_block >= 1, "m_block must be positive, got " << m_block);
  tile_rows = k / 64;
  tile_cols = (n + n_sm_tile - 1) / n_sm_tile;
  m_blocks = std::max<index_t>(1, (m + m_block - 1) / m_block);
}

FunctionalResult run_striped(const TileGrid& grid, int num_sms,
                             const SimContext& ctx,
                             const SegmentFn& run_segment,
                             std::span<const float> column_scale) {
  MARLIN_CHECK(num_sms > 0, "need at least one SM");
  const StripedPartition part = striped_partition(
      grid.tile_rows, grid.tile_cols, num_sms, grid.m_blocks);

  // --- Phase 1: data-parallel stripe execution. Outputs are indexed by
  // SM, so the execution order (and thread count) cannot affect them. A
  // stripe visits output blocks in ascending key order, so each SM's
  // partials are in that order too. ---
  struct SmOutput {
    std::vector<Matrix<float>> partials;
    gpusim::TrafficCounters traffic;
  };
  std::vector<SmOutput> outputs(static_cast<std::size_t>(num_sms));
  ctx.parallel_for(0, num_sms, [&](std::int64_t sm) {
    SmOutput& out = outputs[static_cast<std::size_t>(sm)];
    std::span<const TileCoord> rest =
        part.sm_tiles[static_cast<std::size_t>(sm)];
    while (!rest.empty()) {
      const index_t key = grid.key(rest.front());
      std::size_t len = 1;
      while (len < rest.size() && grid.key(rest[len]) == key) ++len;
      out.partials.push_back(run_segment(rest.first(len), out.traffic));
      rest = rest.subspan(len);
    }
  });

  FunctionalResult res;
  res.c = Matrix<Half>(grid.m, grid.n);
  res.max_stripe_len = part.max_stripe_len();
  res.tiles_processed = part.total_tiles();
  // A is read from GMEM once in total (it then lives in L2; the per-tile
  // re-reads were counted as L2 traffic by each SM).
  res.traffic.gmem_read_bytes += grid.m * grid.k * 2;
  for (const auto& o : outputs) res.traffic += o.traffic;

  // --- Phase 2: serial bottom-to-top FP16 reduction per output block (the
  // lock buffer protocol), directly in the output buffer. Blocks go in key
  // order, so a cursor per SM walks its partials. ---
  const simd::Ops& o = simd::ops();
  std::vector<std::size_t> next(static_cast<std::size_t>(num_sms), 0);
  std::vector<float> scaled(static_cast<std::size_t>(grid.n_sm_tile));
  for (index_t key = 0;
       key < static_cast<index_t>(part.segments.size()); ++key) {
    const auto& segs = part.segments[static_cast<std::size_t>(key)];
    if (segs.empty()) continue;
    const index_t mb = key / grid.tile_cols;
    const index_t col = key % grid.tile_cols;
    const auto width = static_cast<std::size_t>(grid.tile_width(col));
    const index_t m0 = mb * grid.m_block;
    const index_t m_rows = grid.m_rows(mb);
    const index_t c0 = col * grid.n_sm_tile;

    bool first = true;
    for (const ColumnSegment& seg : segs) {
      const auto sm = static_cast<std::size_t>(seg.sm);
      const Matrix<float>& partial = outputs[sm].partials[next[sm]++];
      for (index_t r = 0; r < m_rows; ++r) {
        const float* prow = &partial(r, 0);
        if (!column_scale.empty()) {
          std::memcpy(scaled.data(), prow, width * sizeof(float));
          o.mul_f32(width, column_scale.data() + c0, scaled.data());
          prow = scaled.data();
        }
        std::uint16_t* crow = half_bits_ptr(&res.c(m0 + r, c0));
        if (first) {
          o.f32_to_f16(width, prow, crow);
        } else {
          o.f16_accum_f32(width, prow, crow);  // FP16 in-place reduction
        }
      }
      const std::int64_t bytes = m_rows * static_cast<index_t>(width) * 2;
      res.traffic.gmem_write_bytes += bytes;
      if (!first) {
        res.traffic.gmem_read_bytes += bytes;
        ++res.reduction_steps;
      }
      first = false;
    }
  }
  MARLIN_ASSERT(res.reduction_steps == part.reduction_steps());
  return res;
}

FunctionalResult marlin_matmul(ConstMatrixView<Half> a,
                               const layout::MarlinWeights& b,
                               const KernelConfig& cfg, int num_sms,
                               const SimContext& ctx) {
  MARLIN_CHECK(a.cols() == b.k, "A cols must equal B rows");
  const TileGrid grid(a.rows(), b.k, b.n, cfg);
  MARLIN_CHECK(cfg.n_sm_tile % 64 == 0, "N_sm must be a multiple of 64");

  // Per-column scales are applied once at write-out. scales_packed stores
  // each 64-column chunk permuted: packed position p holds column perm[p].
  std::vector<float> column_scale;
  if (b.cfg.group_size == quant::kPerColumn) {
    const auto perm = layout::scale_chunk_perm();
    column_scale.resize(static_cast<std::size_t>(b.n));
    for (index_t c = 0; c < b.n; c += 64) {
      for (int p = 0; p < 64; ++p) {
        column_scale[static_cast<std::size_t>(
            c + perm[static_cast<std::size_t>(p)])] =
            b.scales_packed(0, c + p).to_float();
      }
    }
  }
  return run_striped(
      grid, num_sms, ctx,
      [&](std::span<const TileCoord> tiles, gpusim::TrafficCounters& traffic) {
        return run_segment(a, b, cfg, grid, tiles, traffic);
      },
      column_scale);
}

}  // namespace marlin::core
