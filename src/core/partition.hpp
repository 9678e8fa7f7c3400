#pragma once
// Striped partitioning (paper §3.4 "Striped Partitioning", Figure 5).
//
// The B tile grid (tile_rows x tile_cols) is flattened column-major and cut
// into #SM contiguous stripes of near-equal length, so a stripe may start
// mid-column and spill into the next column. Every column an SM touches
// yields one partial result; partials of a column are combined by a
// *serial* bottom-to-top reduction in the FP16 output buffer (the lock
// buffer protocol).
//
// For M >> 64 the grid is virtually replicated along the batch dimension
// (paper: "for batchsizes >> 64 we can virtually replicate B for the
// striped index calculations"): each m-block of 64 input rows gets its own
// copy of the tile columns, which drastically reduces reduction steps for
// prefill-sized batches.

#include <vector>

#include "util/matrix.hpp"

namespace marlin::core {

struct TileCoord {
  index_t row = 0;      // K_sm-tile row
  index_t col = 0;      // N_sm-tile column
  index_t m_block = 0;  // virtual replication index (batch block)
};

struct ColumnSegment {
  int sm = -1;
  index_t row_begin = 0;  // inclusive, in tile rows
  index_t row_end = 0;    // exclusive
};

struct StripedPartition {
  index_t tile_rows = 0;
  index_t tile_cols = 0;
  index_t m_blocks = 1;
  int num_sms = 0;

  /// Per SM, the tiles of its stripe in processing order (top-to-bottom,
  /// column-major across the virtually replicated grid).
  std::vector<std::vector<TileCoord>> sm_tiles;

  /// segments[m_block * tile_cols + col]: contributing SMs ordered
  /// bottom-to-top (reduction order).
  std::vector<std::vector<ColumnSegment>> segments;

  [[nodiscard]] index_t total_tiles() const {
    return tile_rows * tile_cols * m_blocks;
  }
  [[nodiscard]] index_t max_stripe_len() const;
  /// Number of serial global-reduction steps (sum over columns of
  /// segments-1).
  [[nodiscard]] index_t reduction_steps() const;
  /// Longest serial reduction chain of any single column.
  [[nodiscard]] index_t max_column_depth() const;
};

[[nodiscard]] StripedPartition striped_partition(index_t tile_rows,
                                                 index_t tile_cols,
                                                 int num_sms,
                                                 index_t m_blocks = 1);

/// The naive alternative the paper compares against conceptually: each SM
/// owns whole columns (no stripes). Used by the partitioning ablation.
[[nodiscard]] StripedPartition columnwise_partition(index_t tile_rows,
                                                    index_t tile_cols,
                                                    int num_sms,
                                                    index_t m_blocks = 1);

/// Closed-form summary of striped_partition for the analytic timing layer —
/// identical numbers without materialising per-tile vectors (the Fig. 1
/// matrix alone has ~83k tiles; prefill batches multiply that).
struct PartitionStats {
  index_t total_tiles = 0;
  index_t max_stripe = 0;
  index_t reduction_steps = 0;
  index_t max_column_depth = 1;
  int active_sms = 0;
};
[[nodiscard]] PartitionStats striped_partition_stats(index_t tile_rows,
                                                     index_t tile_cols,
                                                     int num_sms,
                                                     index_t m_blocks = 1);

}  // namespace marlin::core
