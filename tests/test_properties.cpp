// Cross-module property sweeps: randomized functional-kernel fuzzing,
// timing-model invariants across every device, schedule-through-L2 replay,
// serving-simulator conservation laws, and Half arithmetic against a
// double-precision oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/kernel_model.hpp"
#include "core/l2_replay.hpp"
#include "core/marlin_kernel.hpp"
#include "core/timing.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "serve/server_sim.hpp"
#include "util/rng.hpp"

namespace marlin {
namespace {

// ------------------------------------------------ functional fuzzing ----

class MarlinKernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarlinKernelFuzz, RandomShapeMatchesReference) {
  Rng rng(GetParam());
  const index_t m = 1 + static_cast<index_t>(rng.uniform_int(40));
  const index_t k = 64 * (1 + static_cast<index_t>(rng.uniform_int(4)));
  const index_t n = 64 * (1 + static_cast<index_t>(rng.uniform_int(4)));
  const index_t groups[] = {quant::kPerColumn, 32, 64, 128};
  const index_t group = groups[rng.uniform_int(4)];
  if (group != quant::kPerColumn && group > k) return;  // skip invalid
  const int sms = 1 + static_cast<int>(rng.uniform_int(16));
  const index_t n_sms[] = {64, 128, 256};
  const index_t n_sm = n_sms[rng.uniform_int(3)];

  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }

  quant::QuantConfig qcfg;
  qcfg.group_size = group;
  const auto q = quant::quantize_rtn(w.view(), qcfg);
  const auto mw = layout::marlin_repack(q);
  core::KernelConfig cfg;
  cfg.n_sm_tile = n_sm;
  cfg.num_warps = std::min(8, static_cast<int>(std::min(n_sm, n) / 64) * 4);
  const auto res = core::marlin_matmul(a.view(), mw, cfg, sms);
  const auto ref = core::reference_matmul(a.view(), q.dequantize().view());

  const double tol = 2e-3 * std::sqrt(static_cast<double>(k)) + 3e-2;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const double rel = std::abs(res.c(i, j).to_float() - ref(i, j)) /
                         (std::abs(ref(i, j)) + 1.0);
      ASSERT_LT(rel, tol) << "seed=" << GetParam() << " m=" << m
                          << " k=" << k << " n=" << n << " g=" << group
                          << " sms=" << sms << " nsm=" << n_sm;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarlinKernelFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------- timing invariants ----

class TimingInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(TimingInvariants, HoldOnEveryDevice) {
  const auto& [kernel, dev_idx] = GetParam();
  const auto d = gpusim::all_devices()[static_cast<std::size_t>(dev_idx)];
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  const auto model = baselines::make_kernel_model(kernel);

  double prev = 0.0;
  for (index_t m = 1; m <= 512; m *= 2) {
    const core::MatmulProblem p{m, 8192, 8192, 128, false};
    const auto est = model->estimate(p, d, clock);
    // (1) positive, finite time;
    ASSERT_GT(est.seconds, 0.0);
    ASSERT_TRUE(std::isfinite(est.seconds));
    // (2) monotone non-decreasing in batch;
    EXPECT_GE(est.seconds, prev * 0.999) << kernel << " m=" << m;
    prev = est.seconds;
    // (3) never beats the bandwidth bound on mandatory bytes;
    const double mandatory =
        (kernel == "fp16"
             ? 2.0 * static_cast<double>(p.k) * static_cast<double>(p.n)
             : p.weight_bytes()) /
        d.gmem_bytes_per_s();
    EXPECT_GT(est.seconds, 0.5 * mandatory) << kernel << " m=" << m;
    // (4) achieved FLOP/s below the device peak (with sparse/int8 slack).
    EXPECT_LT(est.achieved_tflops(),
              d.fp16_tc_tflops_boost * 2.1) << kernel << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsXDevices, TimingInvariants,
    ::testing::Combine(::testing::Values("fp16", "marlin", "sparse-marlin",
                                         "marlin-w4a8", "torch-int4",
                                         "exllamav2", "awq", "bitsandbytes"),
                       ::testing::Values(0, 1, 2, 3)));

TEST(TimingInvariants, BaseClockNeverFasterThanBoost) {
  const gpusim::ClockModel boost{gpusim::ClockMode::kBoost};
  const gpusim::ClockModel base{gpusim::ClockMode::kLockedBase};
  for (const auto& d : gpusim::all_devices()) {
    for (const char* kernel : {"fp16", "marlin", "sparse-marlin"}) {
      const auto model = baselines::make_kernel_model(kernel);
      for (const index_t m : {1, 64, 1024}) {
        const core::MatmulProblem p{m, 8192, 8192, 128, false};
        EXPECT_GE(model->estimate(p, d, base).seconds,
                  model->estimate(p, d, boost).seconds * 0.999)
            << d.name << " " << kernel << " m=" << m;
      }
    }
  }
}

// ----------------------------------------------- schedule L2 replay ----

TEST(L2Replay, EvictFirstKeepsAResidentOnFig1Problem) {
  // A10, batch 16: A is 16 x 18432 x 2B = 576 KiB << 6 MiB L2; B is 679 MB.
  const core::MatmulProblem p{16, 18432, 73728, 128, false};
  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto with_hint =
      core::replay_schedule_through_l2(p, cfg, gpusim::a10(), true);
  EXPECT_GT(with_hint.a_hit_rate(), 0.95);
  // B itself almost never hits (each tile read exactly once).
  EXPECT_LT(with_hint.b_stats.hit_rate(), 0.05);
}

TEST(L2Replay, StripeAlignmentMakesAResidentEvenUnhinted) {
  // Emergent property of striping on the Fig. 1 grid: 288 rows x 288 cols
  // on 72 SMs gives stripes of exactly 4 columns, so every SM sits on the
  // SAME tile row each round — A segments are reused within one round and
  // survive even without the hint.
  const core::MatmulProblem p{16, 18432, 73728, 128, false};
  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto no_hint =
      core::replay_schedule_through_l2(p, cfg, gpusim::a10(), false);
  EXPECT_GT(no_hint.a_hit_rate(), 0.9);
}

TEST(L2Replay, WithoutHintTheBStreamPollutesMisalignedA) {
  // 288 rows x 18 columns on 72 SMs: stripes of 72 tiles start at rows
  // {0, 72, 144, 216}, so an A segment is re-touched only ~72 rounds
  // later — long enough for an unhinted B stream (~1.5 lines/set/round)
  // to wipe it. evict_first must preserve it.
  const core::MatmulProblem p{16, 18432, 4608, 128, false};
  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto no_hint =
      core::replay_schedule_through_l2(p, cfg, gpusim::a10(), false);
  const auto hint =
      core::replay_schedule_through_l2(p, cfg, gpusim::a10(), true);
  // Intra-round reuse (18 SMs share each active row) hits either way; the
  // hint's effect is on the across-round reuse: without it, every revisit
  // refetches the evicted segments from GMEM.
  EXPECT_GT(hint.a_hit_rate(), 0.99);
  EXPECT_GT(no_hint.a_stats.misses, 5 * hint.a_stats.misses);
}

TEST(L2Replay, HugeBatchOverflowsL2EvenWithHint) {
  // A at batch 2048 is 72 MB — beyond any hint's help on a 6 MiB L2.
  const core::MatmulProblem p{2048, 18432, 4096, 128, false};
  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto r = core::replay_schedule_through_l2(p, cfg, gpusim::a10(), true);
  EXPECT_LT(r.a_hit_rate(), 0.9);
}

// ------------------------------------------------ serving conservation ----

class ServingConservation : public ::testing::TestWithParam<double> {};

TEST_P(ServingConservation, LawsHold) {
  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  serve::ServingConfig scfg;
  scfg.qps = GetParam();
  scfg.duration_s = 25.0;
  scfg.seed = 7;
  const auto m = serve::simulate_cluster_detailed(engine, scfg).sched.metrics;

  // The sim drains: every arrival completes.
  EXPECT_GE(m.completed, static_cast<index_t>(scfg.qps * 15));
  // TTFT is at least one prefill.
  EXPECT_GE(m.mean_ttft_ms,
            engine.prefill_seconds(1, scfg.input_tokens) * 1e3 * 0.99);
  // TPOT is at least one batch-1 decode step and p90 >= mean is not
  // guaranteed, but p90 >= 0 and mean batch within [1, max_batch].
  EXPECT_GE(m.mean_tpot_ms,
            engine.decode_step_seconds(1, 64.0) * 1e3 * 0.99);
  EXPECT_GE(m.mean_batch, 1.0);
  EXPECT_LE(m.mean_batch, static_cast<double>(scfg.max_batch));
  // Determinism: same seed, same metrics.
  const auto m2 = serve::simulate_cluster_detailed(engine, scfg).sched.metrics;
  EXPECT_DOUBLE_EQ(m.mean_tpot_ms, m2.mean_tpot_ms);
  EXPECT_DOUBLE_EQ(m.mean_ttft_ms, m2.mean_ttft_ms);
}

INSTANTIATE_TEST_SUITE_P(Qps, ServingConservation,
                         ::testing::Values(0.5, 2.0, 8.0));

// ---------------------------------------------------- Half vs oracle ----

TEST(HalfOracle, ArithmeticMatchesDoubleRoundedReference) {
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const float x = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float y = static_cast<float>(rng.uniform(-100.0, 100.0));
    const Half hx(x), hy(y);
    // Model: op in float on the rounded inputs, then round to half — the
    // exact semantics of our operators.
    EXPECT_EQ((hx + hy).bits(),
              Half(hx.to_float() + hy.to_float()).bits());
    EXPECT_EQ((hx * hy).bits(),
              Half(hx.to_float() * hy.to_float()).bits());
    // Round-trip through double changes nothing.
    EXPECT_EQ(Half(static_cast<double>(hx.to_float())).bits(), hx.bits());
  }
}

}  // namespace
}  // namespace marlin
