// Functional dense MARLIN kernel: numerical correctness against the FP32
// reference across shapes/configs, traffic accounting, reduction structure.

#include <gtest/gtest.h>

#include <cmath>

#include "core/marlin_kernel.hpp"
#include "layout/repack.hpp"
#include "param_bytes.hpp"
#include "quant/uniform.hpp"
#include "util/rng.hpp"

namespace marlin::core {
namespace {

struct KernelCase {
  index_t m, k, n;
  index_t n_sm;
  int warps;
  index_t group;
  int sms;
};

void PrintTo(const KernelCase& c, std::ostream* os) {
  test_support::print_field_bytes(c, os, &KernelCase::m, &KernelCase::k,
                                 &KernelCase::n, &KernelCase::n_sm,
                                 &KernelCase::warps, &KernelCase::group,
                                 &KernelCase::sms);
}

Matrix<Half> random_activations(index_t m, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal(0.0, 1.0)));
    }
  }
  return a;
}

quant::QuantizedWeights random_qweights(index_t k, index_t n, index_t group,
                                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  quant::QuantConfig cfg;
  cfg.group_size = group;
  return quant::quantize_rtn(w.view(), cfg);
}

/// FP16 outputs accumulate K terms in FP32 then round once (plus one
/// rounding per serial reduction step); tolerance scales with sqrt(K).
double tolerance(index_t k) {
  return 2e-3 * std::sqrt(static_cast<double>(k)) + 2e-2;
}

class MarlinKernelCorrectness : public ::testing::TestWithParam<KernelCase> {};

TEST_P(MarlinKernelCorrectness, MatchesReference) {
  const auto c = GetParam();
  const auto a = random_activations(c.m, c.k, 1 + c.m + c.k);
  const auto q = random_qweights(c.k, c.n, c.group, 2 + c.n);
  const auto mw = layout::marlin_repack(q);

  KernelConfig cfg;
  cfg.n_sm_tile = c.n_sm;
  cfg.num_warps = c.warps;
  const auto res = marlin_matmul(a.view(), mw, cfg, c.sms);

  const auto wd = q.dequantize();
  const auto ref = reference_matmul(a.view(), wd.view());

  const double tol = tolerance(c.k);
  double worst = 0.0;
  for (index_t i = 0; i < c.m; ++i) {
    for (index_t j = 0; j < c.n; ++j) {
      const double err = std::abs(res.c(i, j).to_float() - ref(i, j));
      const double mag = std::abs(ref(i, j)) + 1.0;
      worst = std::max(worst, err / mag);
    }
  }
  EXPECT_LT(worst, tol) << "m=" << c.m << " k=" << c.k << " n=" << c.n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MarlinKernelCorrectness,
    ::testing::Values(
        KernelCase{1, 64, 64, 64, 4, 64, 1},      // minimal tile
        KernelCase{1, 128, 256, 256, 8, 128, 4},  // single batch row
        KernelCase{16, 128, 256, 256, 8, 128, 8},
        KernelCase{16, 256, 128, 128, 8, 128, 72},  // more SMs than columns
        KernelCase{8, 192, 192, 64, 4, 64, 6},      // ragged n_sm tiling
        KernelCase{16, 128, 128, 128, 4, quant::kPerColumn, 4},
        KernelCase{5, 128, 128, 128, 8, 64, 3},    // M not multiple of 16
        KernelCase{33, 128, 128, 128, 8, 32, 5},
        KernelCase{16, 128, 256, 256, 4, 128, 2},  // warps == subtiles
        KernelCase{80, 128, 128, 128, 8, 64, 4}    // M > 64: replication
        ));

TEST(MarlinKernel, VirtualReplicationMatchesAcrossMBlocks) {
  // M = 80 => two m-blocks; both must be numerically consistent with a
  // single-block run of the corresponding rows.
  const auto a = random_activations(80, 128, 9);
  const auto q = random_qweights(128, 128, 64, 10);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  cfg.n_sm_tile = 128;
  const auto full = marlin_matmul(a.view(), mw, cfg, 8);

  Matrix<Half> tail(16, 128);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 128; ++j) tail(i, j) = a(64 + i, j);
  }
  const auto part = marlin_matmul(tail.view(), mw, cfg, 8);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 128; ++j) {
      EXPECT_NEAR(full.c(64 + i, j).to_float(), part.c(i, j).to_float(),
                  1e-1);
    }
  }
}

TEST(MarlinKernel, IdenticalResultsForAnySmCount) {
  // The striped partition changes who computes what, but only the FP16
  // serial-reduction *split points* differ; results stay within one or two
  // FP16 roundings of each other.
  const auto a = random_activations(4, 256, 20);
  const auto q = random_qweights(256, 128, 128, 21);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  cfg.n_sm_tile = 128;
  const auto r1 = marlin_matmul(a.view(), mw, cfg, 1);
  const auto r8 = marlin_matmul(a.view(), mw, cfg, 8);
  const auto r72 = marlin_matmul(a.view(), mw, cfg, 72);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 128; ++j) {
      EXPECT_NEAR(r1.c(i, j).to_float(), r8.c(i, j).to_float(), 0.25);
      EXPECT_NEAR(r1.c(i, j).to_float(), r72.c(i, j).to_float(), 0.25);
    }
  }
}

TEST(MarlinKernel, SimContextMatchesSerial) {
  const auto a = random_activations(8, 128, 30);
  const auto q = random_qweights(128, 256, 64, 31);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  const auto serial = marlin_matmul(a.view(), mw, cfg, 16);
  const SimContext ctx(4);
  const auto parallel = marlin_matmul(a.view(), mw, cfg, 16, ctx);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      EXPECT_EQ(serial.c(i, j).bits(), parallel.c(i, j).bits());
    }
  }
}

TEST(MarlinKernel, TrafficAccountsBOnce) {
  // 4 SMs x 4 whole columns => no reduction traffic; B must be streamed
  // exactly once (evict-first), A once into L2.
  const index_t k = 256, n = 1024, m = 16;
  const auto a = random_activations(m, k, 40);
  const auto q = random_qweights(k, n, 128, 41);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto res = marlin_matmul(a.view(), mw, cfg, 4);
  EXPECT_EQ(res.reduction_steps, 0);

  const auto b_bytes = static_cast<std::int64_t>(k * n / 2);
  const auto a_bytes = static_cast<std::int64_t>(m * k * 2);
  // GMEM reads = B (once: evict-first streaming) + scales + A (once) +
  // reduction re-reads. Bound it between B+A and B+A+20%.
  EXPECT_GE(res.traffic.gmem_read_bytes, b_bytes + a_bytes);
  EXPECT_LE(res.traffic.gmem_read_bytes,
            (b_bytes + a_bytes) * 12 / 10);
  // C written at least once.
  EXPECT_GE(res.traffic.gmem_write_bytes,
            static_cast<std::int64_t>(m * n * 2));
  // A re-reads all go through L2.
  EXPECT_GE(res.traffic.l2_read_bytes,
            static_cast<std::int64_t>(res.tiles_processed) * m * 64 * 2);
}

TEST(MarlinKernel, ReductionStepsMatchPartition) {
  const auto a = random_activations(4, 256, 50);
  const auto q = random_qweights(256, 128, 64, 51);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  cfg.n_sm_tile = 128;
  const auto res = marlin_matmul(a.view(), mw, cfg, 6);
  const auto stats = striped_partition_stats(256 / 64, 1, 6, 1);
  EXPECT_EQ(res.reduction_steps, stats.reduction_steps);
}

TEST(MarlinKernel, RejectsBadShapes) {
  const auto a = random_activations(4, 100, 60);
  const auto q = random_qweights(128, 128, 64, 61);
  const auto mw = layout::marlin_repack(q);
  KernelConfig cfg;
  EXPECT_THROW(marlin_matmul(a.view(), mw, cfg, 4), marlin::Error);
}

TEST(MarlinKernel, RejectsNonPositiveTileSizes) {
  const auto a = random_activations(4, 128, 62);
  const auto mw = layout::marlin_repack(random_qweights(128, 128, 64, 63));
  for (const index_t bad : {index_t{0}, index_t{-64}}) {
    KernelConfig n_sm;
    n_sm.n_sm_tile = bad;
    EXPECT_THROW(marlin_matmul(a.view(), mw, n_sm, 4), marlin::Error);
    KernelConfig m_block;
    m_block.m_block = bad;
    EXPECT_THROW(marlin_matmul(a.view(), mw, m_block, 4), marlin::Error);
  }
}

TEST(SmemBudget, PaperP4FitsAtBatch64ButP8DoesNot) {
  // §3.4: "P = 4 ... seemed sufficient ... while fitting into shared
  // memory even for M = 64". One stage at M=64/N_sm=256 is ~16.6 KB
  // (8.4 KB packed B + 8.2 KB swizzled A), so 4 stages fit the A10's
  // 100 KB SMEM but 8 stages would not.
  const auto d = gpusim::a10();
  MatmulProblem p{64, 18432, 73728, 128, false};
  KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const double stage = smem_stage_bytes(p, cfg);
  EXPECT_GT(stage, 15.0 * 1024);
  EXPECT_LT(stage, 18.0 * 1024);
  EXPECT_LT(4 * stage, d.smem_per_sm_bytes);
  EXPECT_GT(8 * stage, d.smem_per_sm_bytes);
  EXPECT_EQ(max_pipeline_depth(p, cfg, d), 6);
  EXPECT_EQ(choose_config(p, d).pipeline_depth, 4);
}

TEST(SmemBudget, DepthClampsForHugeStages) {
  // Hypothetical 8-bit weights at M=64/N_sm=256 inflate the stage; the
  // chosen depth shrinks (and stays even) instead of overflowing SMEM.
  const auto d = gpusim::a10();
  MatmulProblem p{64, 18432, 73728, 128, false};
  p.weight_bits = 8;
  const auto cfg = choose_config(p, d);
  EXPECT_LE(cfg.pipeline_depth * smem_stage_bytes(p, cfg),
            d.smem_per_sm_bytes);
  EXPECT_EQ(cfg.pipeline_depth % 2, 0);
}

TEST(ChooseConfig, PrefersWideTilesForLargeBatch) {
  const auto d = gpusim::a10();
  MatmulProblem small{1, 4096, 4096, 128, false};
  MatmulProblem large{64, 4096, 4096, 128, false};
  const auto cfg_small = choose_config(small, d);
  const auto cfg_large = choose_config(large, d);
  EXPECT_LE(cfg_small.n_sm_tile, cfg_large.n_sm_tile);
  // Paper: N_sm = 256 keeps even batch 64 weight-loading bound.
  EXPECT_EQ(cfg_large.n_sm_tile, 256);
  EXPECT_EQ(cfg_large.num_warps, 8);
}

}  // namespace
}  // namespace marlin::core
