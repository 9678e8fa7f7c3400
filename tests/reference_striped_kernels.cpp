#include "reference_striped_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "layout/fragment.hpp"
#include "quant/dequant_trick.hpp"
#include "quant/pack.hpp"
#include "util/simd_ops.hpp"

namespace marlin::reference {

using core::ColumnSegment;
using core::FunctionalResult;
using core::KernelConfig;
using core::StripedPartition;
using core::TileCoord;
using core::striped_partition;

namespace {

using layout::MarlinWeights;

/// One SM's partial result for one (m_block, column) pair.
struct ColumnPartial {
  index_t key = 0;  // m_block * tile_cols + col
  Matrix<float> acc;
};

struct SmOutput {
  std::vector<ColumnPartial> partials;
  gpusim::TrafficCounters traffic;
};

struct Grid {
  index_t m = 0, k = 0, n = 0;
  index_t tile_rows = 0, tile_cols = 0, m_blocks = 0;
  index_t n_sm = 0;  // configured tile width

  [[nodiscard]] index_t tile_width(index_t col) const {
    return std::min(n_sm, n - col * n_sm);
  }
  [[nodiscard]] index_t m_rows(index_t m_block, index_t m_block_size) const {
    return std::min<index_t>(m_block_size, m - m_block * m_block_size);
  }
};

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

/// Execute one SM's stripe; returns its column partials and traffic.
SmOutput run_sm(ConstMatrixView<Half> a, const MarlinWeights& b,
                const KernelConfig& cfg, const Grid& grid,
                const std::vector<TileCoord>& stripe) {
  SmOutput out;
  const bool grouped = b.cfg.group_size != quant::kPerColumn;
  const simd::Ops& o = simd::ops();

  const index_t scale_groups_bytes_per_tile =
      grouped ? (64 / b.cfg.group_size + 1) * 2 : 0;  // upper bound per col

  index_t cur_key = -1;
  index_t cur_col = -1, cur_mb = -1;
  index_t width = 0, m0 = 0, m_rows = 0;
  int n_subtiles = 0, warps_per_sub = 0;
  // Per warp: FP32 accumulator of its 64-wide subtile.
  std::vector<Matrix<float>> warp_acc;

  float wblock[16][64];
  float afl[16];
  AssembleScratch scratch;

  auto flush_column = [&]() {
    if (cur_key < 0) return;
    // Tree-reduce the k-split warps of each subtile, then concatenate.
    Matrix<float> acc(m_rows, width);
    for (int j = 0; j < n_subtiles; ++j) {
      std::vector<Matrix<float>> parts;
      for (int w = j; w < cfg.num_warps; w += n_subtiles) {
        parts.push_back(std::move(warp_acc[static_cast<std::size_t>(w)]));
      }
      warp_tree_reduce(parts, out.traffic, o);
      for (index_t r = 0; r < m_rows; ++r) {
        for (index_t c = 0; c < 64; ++c) {
          acc(r, j * 64 + c) = parts[0](r, c);
        }
      }
    }
    out.partials.push_back({cur_key, std::move(acc)});
    cur_key = -1;
  };

  for (const TileCoord& t : stripe) {
    const index_t key = t.m_block * grid.tile_cols + t.col;
    if (key != cur_key) {
      flush_column();
      cur_key = key;
      cur_col = t.col;
      cur_mb = t.m_block;
      width = grid.tile_width(cur_col);
      m0 = cur_mb * cfg.m_block;
      m_rows = grid.m_rows(cur_mb, cfg.m_block);
      n_subtiles = static_cast<int>(width / 64);
      MARLIN_CHECK(cfg.num_warps >= n_subtiles,
                   "need at least one warp per 64-wide subtile");
      warps_per_sub = cfg.num_warps / n_subtiles;
      warp_acc.assign(static_cast<std::size_t>(cfg.num_warps), {});
      for (auto& wa : warp_acc) wa = Matrix<float>(m_rows, 64, 0.0f);
    }

    // --- B tile load (streamed once, evict-first). ---
    out.traffic.gmem_read_bytes += 64 * width / 2;
    if (grouped) {
      out.traffic.gmem_read_bytes += scale_groups_bytes_per_tile * width;
    }
    // --- A block re-read through L2. ---
    out.traffic.l2_read_bytes += m_rows * 64 * 2;

    // --- Tensor-core main loop: slabs x subtiles, split across warps. ---
    const index_t k0 = t.row * 64;
    for (int s = 0; s < 4; ++s) {  // 4 slabs of 16 reduction rows
      const index_t slab = t.row * 4 + s;
      for (int j = 0; j < n_subtiles; ++j) {
        const index_t chunk = (cur_col * grid.n_sm) / 64 + j;
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
  flush_column();
  return out;
}

}  // namespace

FunctionalResult marlin_matmul(ConstMatrixView<Half> a,
                               const layout::MarlinWeights& b,
                               const KernelConfig& cfg, int num_sms,
                               const SimContext& ctx) {
  const index_t m = a.rows(), k = a.cols(), n = b.n;
  MARLIN_CHECK(k == b.k, "A cols must equal B rows");
  MARLIN_CHECK(k % 64 == 0, "K must be divisible by 64");
  MARLIN_CHECK(n % 64 == 0, "N must be divisible by 64");
  MARLIN_CHECK(cfg.n_sm_tile % 64 == 0, "N_sm must be a multiple of 64");
  MARLIN_CHECK(num_sms > 0, "need at least one SM");

  Grid grid;
  grid.m = m;
  grid.k = k;
  grid.n = n;
  grid.n_sm = cfg.n_sm_tile;
  grid.tile_rows = k / 64;
  grid.tile_cols = (n + cfg.n_sm_tile - 1) / cfg.n_sm_tile;
  grid.m_blocks = std::max<index_t>(1, (m + cfg.m_block - 1) / cfg.m_block);

  const StripedPartition part = striped_partition(
      grid.tile_rows, grid.tile_cols, num_sms, grid.m_blocks);

  // --- Phase 1: data-parallel stripe execution. Outputs are indexed by
  // SM, so the execution order (and thread count) cannot affect them. ---
  std::vector<SmOutput> outputs(static_cast<std::size_t>(num_sms));
  ctx.parallel_for(0, num_sms, [&](std::int64_t sm) {
    outputs[static_cast<std::size_t>(sm)] =
        run_sm(a, b, cfg, grid, part.sm_tiles[static_cast<std::size_t>(sm)]);
  });

  FunctionalResult res;
  res.c = Matrix<Half>(m, n);
  res.max_stripe_len = part.max_stripe_len();
  res.tiles_processed = part.total_tiles();
  // A is read from GMEM once in total (it then lives in L2; the per-tile
  // re-reads were counted as L2 traffic by each SM).
  res.traffic.gmem_read_bytes += m * k * 2;
  for (const auto& o : outputs) res.traffic += o.traffic;

  // Index partials: (sm, key) -> matrix.
  std::vector<std::vector<const Matrix<float>*>> by_sm(
      static_cast<std::size_t>(num_sms));
  std::vector<std::vector<index_t>> keys_by_sm(
      static_cast<std::size_t>(num_sms));
  for (int sm = 0; sm < num_sms; ++sm) {
    for (const auto& p : outputs[static_cast<std::size_t>(sm)].partials) {
      by_sm[static_cast<std::size_t>(sm)].push_back(&p.acc);
      keys_by_sm[static_cast<std::size_t>(sm)].push_back(p.key);
    }
  }
  auto find_partial = [&](int sm, index_t key) -> const Matrix<float>& {
    const auto& keys = keys_by_sm[static_cast<std::size_t>(sm)];
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) return *by_sm[static_cast<std::size_t>(sm)][i];
    }
    MARLIN_CHECK(false, "missing partial for sm " << sm << " key " << key);
    return *by_sm[0][0];  // unreachable
  };

  const bool per_column = b.cfg.group_size == quant::kPerColumn;
  const auto perm = layout::scale_chunk_perm();
  // Invert the scale permutation once (original position -> packed column).
  std::array<int, 64> inv_perm{};
  for (int p = 0; p < 64; ++p) {
    inv_perm[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])] = p;
  }
  const simd::Ops& o = simd::ops();
  std::vector<float> colscale(static_cast<std::size_t>(cfg.n_sm_tile));
  std::vector<float> scaled(static_cast<std::size_t>(cfg.n_sm_tile));

  // --- Phase 2: serial bottom-to-top FP16 reduction per column (the lock
  // buffer protocol), directly in the output buffer. ---
  for (index_t key = 0;
       key < static_cast<index_t>(part.segments.size()); ++key) {
    const auto& segs = part.segments[static_cast<std::size_t>(key)];
    if (segs.empty()) continue;
    const index_t mb = key / grid.tile_cols;
    const index_t col = key % grid.tile_cols;
    const index_t width = grid.tile_width(col);
    const index_t m0 = mb * cfg.m_block;
    const index_t m_rows = grid.m_rows(mb, cfg.m_block);
    const index_t c0 = col * cfg.n_sm_tile;

    if (per_column) {
      // Output scaling (per-column scales applied once at write-out);
      // scales_packed stores permuted columns, hence inv_perm.
      for (index_t c = 0; c < width; ++c) {
        const index_t chunk = (c0 + c) / 64;
        const int packed_pos =
            inv_perm[static_cast<std::size_t>((c0 + c) % 64)];
        colscale[static_cast<std::size_t>(c)] =
            b.scales_packed(0, chunk * 64 + packed_pos).to_float();
      }
    }

    bool first = true;
    for (const ColumnSegment& seg : segs) {
      const Matrix<float>& partial = find_partial(seg.sm, key);
      for (index_t r = 0; r < m_rows; ++r) {
        const float* prow = &partial(r, 0);
        if (per_column) {
          std::memcpy(scaled.data(), prow,
                      static_cast<std::size_t>(width) * sizeof(float));
          o.mul_f32(static_cast<std::size_t>(width), colscale.data(),
                    scaled.data());
          prow = scaled.data();
        }
        std::uint16_t* crow = half_bits_ptr(&res.c(m0 + r, c0));
        if (first) {
          o.f32_to_f16(static_cast<std::size_t>(width), prow, crow);
        } else {
          // FP16 in-place reduction
          o.f16_accum_f32(static_cast<std::size_t>(width), prow, crow);
        }
      }
      const std::int64_t bytes = m_rows * width * 2;
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

namespace {

struct SparseSmOutput {
  std::vector<std::pair<index_t, Matrix<float>>> partials;
  gpusim::TrafficCounters traffic;
};

}  // namespace

FunctionalResult sparse_marlin_matmul(ConstMatrixView<Half> a,
                                      const sparse::Sparse24Weights& b,
                                      const KernelConfig& cfg, int num_sms,
                                      const SimContext& ctx) {
  const index_t m = a.rows(), k = a.cols(), n = b.n;
  MARLIN_CHECK(k == b.k, "A cols must equal B (original) rows");
  MARLIN_CHECK(k % 64 == 0, "K must be divisible by 64");
  MARLIN_CHECK(n % 64 == 0, "N must be divisible by 64");
  MARLIN_CHECK(num_sms > 0, "need at least one SM");

  const index_t tile_rows = k / 64;
  const index_t tile_cols = (n + cfg.n_sm_tile - 1) / cfg.n_sm_tile;
  const index_t m_blocks =
      std::max<index_t>(1, (m + cfg.m_block - 1) / cfg.m_block);
  const StripedPartition part =
      striped_partition(tile_rows, tile_cols, num_sms, m_blocks);

  auto tile_width = [&](index_t col) {
    return std::min<index_t>(cfg.n_sm_tile, n - col * cfg.n_sm_tile);
  };
  auto m_rows_of = [&](index_t mb) {
    return std::min<index_t>(cfg.m_block, m - mb * cfg.m_block);
  };

  std::vector<SparseSmOutput> outputs(static_cast<std::size_t>(num_sms));
  auto run_one = [&](std::int64_t sm) {
    SparseSmOutput& out = outputs[static_cast<std::size_t>(sm)];
    index_t cur_key = -1;
    Matrix<float> acc;
    index_t width = 0, m0 = 0, m_rows = 0, c0 = 0;

    auto flush = [&]() {
      if (cur_key < 0) return;
      out.partials.emplace_back(cur_key, std::move(acc));
      cur_key = -1;
    };

    for (const TileCoord& t :
         part.sm_tiles[static_cast<std::size_t>(sm)]) {
      const index_t key = t.m_block * tile_cols + t.col;
      if (key != cur_key) {
        flush();
        cur_key = key;
        width = tile_width(t.col);
        m0 = t.m_block * cfg.m_block;
        m_rows = m_rows_of(t.m_block);
        c0 = t.col * cfg.n_sm_tile;
        acc = Matrix<float>(m_rows, width, 0.0f);
      }

      // Compressed stream: codes (0.25 B / original element) + metadata
      // (4 bits per 4-row group) + grouped scales.
      out.traffic.gmem_read_bytes += 64 * width / 4;  // nz codes
      out.traffic.gmem_read_bytes += 64 * width / 8;  // 2-bit metadata
      if (b.cfg.group_size != quant::kPerColumn) {
        out.traffic.gmem_read_bytes += (64 / b.cfg.group_size + 1) * 2 * width;
      }
      // A block via L2 (transposed on the fly by ldmatrix .trans — free).
      out.traffic.l2_read_bytes += m_rows * 64 * 2;

      const index_t k0 = t.row * 64;
      for (index_t g = 0; g < 16; ++g) {  // 16 groups of 4 original rows
        const index_t group = (k0 + g * 4) / 4;
        for (index_t c = 0; c < width; ++c) {
          const index_t col = c0 + c;
          const auto [i0, i1] = sparse::meta_select(b, group, col);
          // The two surviving codes of this group/column.
          for (int t2 = 0; t2 < 2; ++t2) {
            const int sel = (t2 == 0) ? i0 : i1;
            const index_t row = k0 + g * 4 + sel;
            const int code = b.nz_codes(group * 2 + t2, col);
            const float scale =
                b.scales(b.cfg.group_of_row(row), col).to_float();
            const float wv = static_cast<float>(code - 8) * scale;
            if (wv == 0.0f) continue;
            for (index_t r = 0; r < m_rows; ++r) {
              // SPTC selection: only the metadata-addressed A element of
              // this 4-group is consumed.
              acc(r, c) += a(m0 + r, row).to_float() * wv;
            }
          }
        }
      }
    }
    flush();
  };

  ctx.parallel_for(0, num_sms, run_one);

  FunctionalResult res;
  res.c = Matrix<Half>(m, n);
  res.max_stripe_len = part.max_stripe_len();
  res.tiles_processed = part.total_tiles();
  res.traffic.gmem_read_bytes += m * k * 2;
  for (const auto& o : outputs) res.traffic += o.traffic;

  auto find_partial = [&](int sm, index_t key) -> const Matrix<float>& {
    for (const auto& [pk, mat] :
         outputs[static_cast<std::size_t>(sm)].partials) {
      if (pk == key) return mat;
    }
    MARLIN_CHECK(false, "missing partial for sm " << sm << " key " << key);
    return outputs[0].partials[0].second;  // unreachable
  };

  // Serial bottom-to-top FP16 reduction (lock buffer protocol).
  for (index_t key = 0;
       key < static_cast<index_t>(part.segments.size()); ++key) {
    const auto& segs = part.segments[static_cast<std::size_t>(key)];
    if (segs.empty()) continue;
    const index_t mb = key / tile_cols;
    const index_t col = key % tile_cols;
    const index_t width = tile_width(col);
    const index_t m0 = mb * cfg.m_block;
    const index_t m_rows = m_rows_of(mb);
    const index_t c0 = col * cfg.n_sm_tile;

    bool first = true;
    for (const ColumnSegment& seg : segs) {
      const Matrix<float>& partial = find_partial(seg.sm, key);
      for (index_t r = 0; r < m_rows; ++r) {
        for (index_t c = 0; c < width; ++c) {
          Half& out = res.c(m0 + r, c0 + c);
          out = first ? Half(partial(r, c))
                      : Half(out.to_float() + partial(r, c));
        }
      }
      const std::int64_t bytes = m_rows * width * 2;
      res.traffic.gmem_write_bytes += bytes;
      if (!first) {
        res.traffic.gmem_read_bytes += bytes;
        ++res.reduction_steps;
      }
      first = false;
    }
  }
  return res;
}

}  // namespace marlin::reference
