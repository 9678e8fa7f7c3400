// Striped partitioning (paper Fig. 5): coverage, balance, segment order,
// closed-form stats, and comparison against column-wise partitioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/partition.hpp"
#include "param_bytes.hpp"

namespace marlin::core {
namespace {

struct GridCase {
  index_t rows, cols;
  int sms;
  index_t m_blocks;
};

void PrintTo(const GridCase& c, std::ostream* os) {
  test_support::print_field_bytes(c, os, &GridCase::rows, &GridCase::cols,
                                 &GridCase::sms, &GridCase::m_blocks);
}

class StripedProperties : public ::testing::TestWithParam<GridCase> {};

TEST_P(StripedProperties, CoversEveryTileExactlyOnce) {
  const auto [rows, cols, sms, mb] = GetParam();
  const auto part = striped_partition(rows, cols, sms, mb);
  std::set<std::tuple<index_t, index_t, index_t>> seen;
  for (const auto& stripe : part.sm_tiles) {
    for (const auto& t : stripe) {
      EXPECT_TRUE(seen.insert({t.row, t.col, t.m_block}).second);
      EXPECT_LT(t.row, rows);
      EXPECT_LT(t.col, cols);
      EXPECT_LT(t.m_block, mb);
    }
  }
  EXPECT_EQ(static_cast<index_t>(seen.size()), rows * cols * mb);
}

TEST_P(StripedProperties, BalancedWithinOneTile) {
  const auto [rows, cols, sms, mb] = GetParam();
  const auto part = striped_partition(rows, cols, sms, mb);
  index_t min_len = part.total_tiles();
  for (const auto& s : part.sm_tiles) {
    min_len = std::min(min_len, static_cast<index_t>(s.size()));
  }
  EXPECT_LE(part.max_stripe_len() - min_len, 1);
}

TEST_P(StripedProperties, SegmentsAreBottomToTopAndDisjoint) {
  const auto [rows, cols, sms, mb] = GetParam();
  const auto part = striped_partition(rows, cols, sms, mb);
  for (const auto& segs : part.segments) {
    index_t covered = 0;
    index_t prev_begin = rows + 1;
    for (const auto& s : segs) {
      EXPECT_LT(s.row_begin, prev_begin);  // strictly descending
      prev_begin = s.row_begin;
      EXPECT_LT(s.row_begin, s.row_end);
      covered += s.row_end - s.row_begin;
    }
    EXPECT_EQ(covered, rows);  // column fully covered
  }
}

TEST_P(StripedProperties, StatsMatchMaterializedPartition) {
  const auto [rows, cols, sms, mb] = GetParam();
  const auto part = striped_partition(rows, cols, sms, mb);
  const auto stats = striped_partition_stats(rows, cols, sms, mb);
  EXPECT_EQ(stats.total_tiles, part.total_tiles());
  EXPECT_EQ(stats.max_stripe, part.max_stripe_len());
  EXPECT_EQ(stats.reduction_steps, part.reduction_steps());
  EXPECT_EQ(stats.max_column_depth, part.max_column_depth());
}

INSTANTIATE_TEST_SUITE_P(
    Grids, StripedProperties,
    ::testing::Values(GridCase{8, 4, 6, 1}, GridCase{288, 288, 72, 1},
                      GridCase{7, 3, 5, 1}, GridCase{64, 18, 72, 1},
                      GridCase{16, 2, 108, 1}, GridCase{32, 9, 72, 2},
                      GridCase{5, 1, 4, 4}, GridCase{1, 1, 72, 1},
                      GridCase{288, 288, 72, 2}));

TEST(Striped, StripesSpanColumnsLikeFigure5) {
  // 7 tiles rows x 4 cols on 7 SMs (the paper's Figure 5 geometry): the
  // stripes must spill across columns.
  const auto part = striped_partition(7, 4, 7, 1);
  // Each SM gets exactly 4 tiles.
  for (const auto& s : part.sm_tiles) EXPECT_EQ(s.size(), 4u);
  // SM 1 spans columns 0 and 1 (tiles 4,5,6 of col 0 and tile 0 of col 1).
  const auto& sm1 = part.sm_tiles[1];
  EXPECT_EQ(sm1.front().col, 0);
  EXPECT_EQ(sm1.back().col, 1);
}

TEST(Striped, FewerTilesThanSmsLeavesIdleSms) {
  const auto part = striped_partition(2, 2, 16, 1);
  index_t empty = 0;
  for (const auto& s : part.sm_tiles) {
    if (s.empty()) ++empty;
  }
  EXPECT_EQ(empty, 12);
  const auto stats = striped_partition_stats(2, 2, 16, 1);
  EXPECT_EQ(stats.active_sms, 4);
}

TEST(Striped, VirtualReplicationReducesReductionSteps) {
  // Paper: replicating B for M >> 64 "results in significantly less global
  // reductions". Same total tiles, compare reduction steps.
  const index_t rows = 64, cols = 9;
  const auto merged = striped_partition(rows, cols, 72, 4);
  // Against the alternative of k-splitting the same work into one grid
  // with 4x the rows (deeper columns => more split columns).
  const auto ksplit = striped_partition(rows * 4, cols, 72, 1);
  EXPECT_LE(merged.reduction_steps(), ksplit.reduction_steps());
}

TEST(Columnwise, MoreImbalancedThanStriped) {
  // 18 columns on 72 SMs: column-wise leaves 54 SMs idle; striped uses all.
  const auto cw = columnwise_partition(64, 18, 72, 1);
  const auto st = striped_partition(64, 18, 72, 1);
  index_t cw_active = 0, st_active = 0;
  for (const auto& s : cw.sm_tiles) cw_active += s.empty() ? 0 : 1;
  for (const auto& s : st.sm_tiles) st_active += s.empty() ? 0 : 1;
  EXPECT_EQ(cw_active, 18);
  EXPECT_EQ(st_active, 72);
  EXPECT_GT(cw.max_stripe_len(), st.max_stripe_len());
  // Column-wise needs no reductions — that's its one advantage.
  EXPECT_EQ(cw.reduction_steps(), 0);
  EXPECT_GT(st.reduction_steps(), 0);
}

TEST(Striped, ReductionDepthSmall) {
  // With stripes of >= 1 column, any column is split by at most a handful
  // of boundaries.
  const auto stats = striped_partition_stats(288, 288, 72, 1);
  EXPECT_LE(stats.max_column_depth, 2);
}

TEST(Striped, RejectsEmptyGrid) {
  EXPECT_THROW(striped_partition(0, 4, 8, 1), marlin::Error);
  EXPECT_THROW(striped_partition(4, 4, 0, 1), marlin::Error);
}

}  // namespace
}  // namespace marlin::core
