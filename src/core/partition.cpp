#include "core/partition.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace marlin::core {

index_t StripedPartition::max_stripe_len() const {
  index_t mx = 0;
  for (const auto& s : sm_tiles) {
    mx = std::max(mx, static_cast<index_t>(s.size()));
  }
  return mx;
}

index_t StripedPartition::reduction_steps() const {
  index_t steps = 0;
  for (const auto& col : segments) {
    if (!col.empty()) steps += static_cast<index_t>(col.size()) - 1;
  }
  return steps;
}

index_t StripedPartition::max_column_depth() const {
  index_t mx = 0;
  for (const auto& col : segments) {
    mx = std::max(mx, static_cast<index_t>(col.size()));
  }
  return mx;
}

namespace {

void build_segments(StripedPartition& part) {
  part.segments.assign(
      static_cast<std::size_t>(part.tile_cols * part.m_blocks), {});
  for (int sm = 0; sm < part.num_sms; ++sm) {
    const auto& tiles = part.sm_tiles[static_cast<std::size_t>(sm)];
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      const auto& t = tiles[i];
      const std::size_t key =
          static_cast<std::size_t>(t.m_block * part.tile_cols + t.col);
      auto& segs = part.segments[key];
      if (!segs.empty() && segs.back().sm == sm &&
          segs.back().row_end == t.row) {
        segs.back().row_end = t.row + 1;  // extend this SM's segment
      } else {
        segs.push_back({sm, t.row, t.row + 1});
      }
    }
  }
  // Reduction proceeds bottom-to-top: the bottom-most segment finishes
  // first (its SM started there or reached it earliest in column order).
  for (auto& segs : part.segments) {
    std::sort(segs.begin(), segs.end(),
              [](const ColumnSegment& a, const ColumnSegment& b) {
                return a.row_begin > b.row_begin;
              });
  }
}

}  // namespace

StripedPartition striped_partition(index_t tile_rows, index_t tile_cols,
                                   int num_sms, index_t m_blocks) {
  MARLIN_CHECK(tile_rows > 0 && tile_cols > 0 && m_blocks > 0,
               "empty tile grid");
  MARLIN_CHECK(num_sms > 0, "need at least one SM");
  StripedPartition part;
  part.tile_rows = tile_rows;
  part.tile_cols = tile_cols;
  part.m_blocks = m_blocks;
  part.num_sms = num_sms;
  part.sm_tiles.assign(static_cast<std::size_t>(num_sms), {});

  const index_t total = part.total_tiles();
  const index_t base = total / num_sms;
  const index_t rem = total % num_sms;

  index_t next = 0;  // linear index, column-major over the replicated grid
  for (int sm = 0; sm < num_sms; ++sm) {
    const index_t len = base + (sm < rem ? 1 : 0);
    auto& stripe = part.sm_tiles[static_cast<std::size_t>(sm)];
    stripe.reserve(static_cast<std::size_t>(len));
    for (index_t i = 0; i < len; ++i, ++next) {
      const index_t vcol = next / tile_rows;
      const index_t row = next % tile_rows;
      stripe.push_back({row, vcol % tile_cols, vcol / tile_cols});
    }
  }
  MARLIN_ASSERT(next == total);
  build_segments(part);
  return part;
}

PartitionStats striped_partition_stats(index_t tile_rows, index_t tile_cols,
                                       int num_sms, index_t m_blocks) {
  MARLIN_CHECK(tile_rows > 0 && tile_cols > 0 && m_blocks > 0,
               "empty tile grid");
  MARLIN_CHECK(num_sms > 0, "need at least one SM");
  PartitionStats st;
  st.total_tiles = tile_rows * tile_cols * m_blocks;
  const index_t base = st.total_tiles / num_sms;
  const index_t rem = st.total_tiles % num_sms;
  st.max_stripe = base + (rem > 0 ? 1 : 0);
  st.active_sms = static_cast<int>(
      std::min<index_t>(num_sms, st.total_tiles));

  // A stripe boundary strictly inside a column splits it into one more
  // segment; a column with S segments needs S-1 serial reduction steps.
  std::vector<index_t> depth(
      static_cast<std::size_t>(tile_cols * m_blocks), 1);
  for (int sm = 1; sm < num_sms; ++sm) {
    const index_t b =
        static_cast<index_t>(sm) * base + std::min<index_t>(sm, rem);
    if (b >= st.total_tiles) break;
    if (b % tile_rows != 0) {
      ++st.reduction_steps;
      ++depth[static_cast<std::size_t>(b / tile_rows)];
    }
  }
  for (const index_t d : depth) {
    st.max_column_depth = std::max(st.max_column_depth, d);
  }
  return st;
}

StripedPartition columnwise_partition(index_t tile_rows, index_t tile_cols,
                                      int num_sms, index_t m_blocks) {
  MARLIN_CHECK(tile_rows > 0 && tile_cols > 0 && m_blocks > 0,
               "empty tile grid");
  MARLIN_CHECK(num_sms > 0, "need at least one SM");
  StripedPartition part;
  part.tile_rows = tile_rows;
  part.tile_cols = tile_cols;
  part.m_blocks = m_blocks;
  part.num_sms = num_sms;
  part.sm_tiles.assign(static_cast<std::size_t>(num_sms), {});

  const index_t vcols = tile_cols * m_blocks;
  for (index_t vc = 0; vc < vcols; ++vc) {
    const int sm = static_cast<int>(vc % num_sms);
    auto& stripe = part.sm_tiles[static_cast<std::size_t>(sm)];
    for (index_t r = 0; r < tile_rows; ++r) {
      stripe.push_back({r, vc % tile_cols, vc / tile_cols});
    }
  }
  build_segments(part);
  return part;
}

}  // namespace marlin::core
