#include "core/sparse_kernel.hpp"

namespace marlin::core {

FunctionalResult sparse_marlin_matmul(ConstMatrixView<Half> a,
                                      const sparse::Sparse24Weights& b,
                                      const KernelConfig& cfg, int num_sms,
                                      const SimContext& ctx) {
  MARLIN_CHECK(a.cols() == b.k, "A cols must equal B (original) rows");
  const TileGrid grid(a.rows(), b.k, b.n, cfg);

  auto run_segment = [&](std::span<const TileCoord> tiles,
                         gpusim::TrafficCounters& traffic) {
    const index_t tile_col = tiles.front().col;
    const index_t mb = tiles.front().m_block;
    const index_t width = grid.tile_width(tile_col);
    const index_t m0 = mb * grid.m_block;
    const index_t m_rows = grid.m_rows(mb);
    const index_t c0 = tile_col * grid.n_sm_tile;
    Matrix<float> acc(m_rows, width, 0.0f);

    for (const TileCoord& t : tiles) {
      // Compressed stream: codes (0.25 B / original element) + metadata
      // (4 bits per 4-row group) + grouped scales.
      traffic.gmem_read_bytes += 64 * width / 4;  // nz codes
      traffic.gmem_read_bytes += 64 * width / 8;  // 2-bit metadata
      if (b.cfg.group_size != quant::kPerColumn) {
        traffic.gmem_read_bytes += (64 / b.cfg.group_size + 1) * 2 * width;
      }
      // A block via L2 (transposed on the fly by ldmatrix .trans — free).
      traffic.l2_read_bytes += m_rows * 64 * 2;

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
    return acc;
  };
  return run_striped(grid, num_sms, ctx, run_segment);
}

}  // namespace marlin::core
