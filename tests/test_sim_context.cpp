// SimContext: thread policy, nesting guard, chunked parallel_for, and the
// determinism guarantee — both functional kernels must produce bit-identical
// FunctionalResult (output matrix + traffic counters + reduction structure)
// at every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "core/marlin_kernel.hpp"
#include "core/sparse_kernel.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "sparse/compressed.hpp"
#include "sparse/two_four.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sim_context.hpp"

namespace marlin {
namespace {

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

void expect_bit_identical(const core::FunctionalResult& a,
                          const core::FunctionalResult& b) {
  ASSERT_EQ(a.c.rows(), b.c.rows());
  ASSERT_EQ(a.c.cols(), b.c.cols());
  for (index_t i = 0; i < a.c.rows(); ++i) {
    for (index_t j = 0; j < a.c.cols(); ++j) {
      ASSERT_EQ(a.c(i, j).bits(), b.c(i, j).bits())
          << "at (" << i << ", " << j << ")";
    }
  }
  EXPECT_EQ(a.traffic.gmem_read_bytes, b.traffic.gmem_read_bytes);
  EXPECT_EQ(a.traffic.gmem_write_bytes, b.traffic.gmem_write_bytes);
  EXPECT_EQ(a.traffic.l2_read_bytes, b.traffic.l2_read_bytes);
  EXPECT_EQ(a.traffic.smem_read_bytes, b.traffic.smem_read_bytes);
  EXPECT_EQ(a.traffic.smem_write_bytes, b.traffic.smem_write_bytes);
  EXPECT_EQ(a.reduction_steps, b.reduction_steps);
  EXPECT_EQ(a.tiles_processed, b.tiles_processed);
  EXPECT_EQ(a.max_stripe_len, b.max_stripe_len);
}

TEST(SimContextPolicy, ExplicitCountWins) {
  const SimContext ctx(3);
  EXPECT_EQ(ctx.num_threads(), 3u);
  EXPECT_FALSE(ctx.serial());
}

TEST(SimContextPolicy, SerialModeNeverStartsAPool) {
  const SimContext ctx(1);
  EXPECT_TRUE(ctx.serial());
  EXPECT_EQ(ctx.pool(), nullptr);
}

TEST(SimContextPolicy, EnvironmentVariableIsHonoured) {
  ASSERT_EQ(setenv("MARLIN_THREADS", "7", 1), 0);
  EXPECT_EQ(SimContext::resolve_threads(0), 7u);
  // Explicit request beats the environment.
  EXPECT_EQ(SimContext::resolve_threads(2), 2u);
  ASSERT_EQ(unsetenv("MARLIN_THREADS"), 0);
  EXPECT_EQ(SimContext::resolve_threads(0),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(SimContextPolicy, CliThreadsFlag) {
  const char* argv[] = {"prog", "--threads", "2"};
  const SimContext ctx = make_sim_context(CliArgs(3, argv));
  EXPECT_EQ(ctx.num_threads(), 2u);
}

TEST(SimContextPolicy, CountsAboveTheMaximumThrowBeforeAnyPoolStarts) {
  constexpr unsigned kMax = SimContext::kMaxThreads;
  EXPECT_THROW(SimContext ctx(kMax + 1), Error);
  EXPECT_EQ(SimContext::resolve_threads(kMax), kMax);  // starts nothing
  for (const char* count : {"1025", "4294967297", "-1"}) {
    const char* argv[] = {"prog", "--threads", count};
    EXPECT_THROW((void)make_sim_context(CliArgs(3, argv)), Error) << count;
  }
  ASSERT_EQ(setenv("MARLIN_THREADS", "100000", 1), 0);
  EXPECT_THROW((void)SimContext::resolve_threads(0), Error);
  ASSERT_EQ(unsetenv("MARLIN_THREADS"), 0);
}

TEST(SimContextPolicy, PoolIsLazyAndShared) {
  const SimContext ctx(4);
  ThreadPool* p1 = ctx.pool();
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->size(), 3u);  // workers; the caller is the 4th executor
  EXPECT_EQ(ctx.pool(), p1);
}

TEST(SimContextParallelFor, RunsEveryIndexOnce) {
  const SimContext ctx(4);
  // Large enough to span many chunks (the chunked dispatch satellite).
  constexpr std::int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  ctx.parallel_for(0, kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(SimContextParallelFor, ExceptionFromAnyChunkPropagatesPoolReusable) {
  const SimContext ctx(3);
  // Throw near the *end* of the range: with chunked dispatch this lands in
  // the last chunk, which the one-task-per-index scheme also covered but a
  // naive chunk implementation could drop.
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{99999}}) {
    EXPECT_THROW(ctx.parallel_for(0, 100000,
                                  [&](std::int64_t i) {
                                    if (i == bad) throw Error("boom");
                                  }),
                 Error);
  }
  // The pool survives both failures.
  std::atomic<int> count{0};
  ctx.parallel_for(0, 64, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(SimContextParallelFor, NestedCallDegradesInlineNoDeadlock) {
  const SimContext ctx(2);
  std::atomic<int> inner_total{0};
  ctx.parallel_for(0, 8, [&](std::int64_t) {
    // Inside a pool worker the inner loop must run inline (the nesting
    // guard); from the caller-claimed chunk it may fan out — either way
    // every inner index runs exactly once and nothing deadlocks.
    ctx.parallel_for(0, 64,
                     [&](std::int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 64);
}

TEST(SimContextParallelFor, DeepNestingCompletes) {
  const SimContext ctx(4);
  std::atomic<int> leaves{0};
  ctx.parallel_for(0, 4, [&](std::int64_t) {
    ctx.parallel_for(0, 4, [&](std::int64_t) {
      ctx.parallel_for(0, 4, [&](std::int64_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

/// The determinism contract of the tentpole: threads 1 / 2 / hardware
/// concurrency must yield bit-identical FunctionalResult.
TEST(KernelDeterminism, DenseBitIdenticalAcrossThreadCounts) {
  const auto a = random_activations(33, 256, 71);
  const auto q = random_qweights(256, 256, 64, 72);
  const auto mw = layout::marlin_repack(q);
  core::KernelConfig cfg;
  cfg.n_sm_tile = 128;

  const SimContext serial(1);
  const SimContext two(2);
  const SimContext hw(0);
  const auto r1 = core::marlin_matmul(a.view(), mw, cfg, 72, serial);
  const auto r2 = core::marlin_matmul(a.view(), mw, cfg, 72, two);
  const auto rh = core::marlin_matmul(a.view(), mw, cfg, 72, hw);
  expect_bit_identical(r1, r2);
  expect_bit_identical(r1, rh);
}

TEST(KernelDeterminism, SparseBitIdenticalAcrossThreadCounts) {
  const index_t k = 256, n = 128;
  const auto a = random_activations(17, k, 81);
  auto q = random_qweights(k, n, 64, 82);
  const auto mask = sparse::prune_24_magnitude(q.dequantize().view());
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (!mask.keep(i, j)) q.codes(i, j) = 8;
    }
  }
  const auto s24 = sparse::compress_24(q, mask);
  core::KernelConfig cfg;
  cfg.n_sm_tile = 128;

  const SimContext serial(1);
  const SimContext two(2);
  const SimContext hw(0);
  const auto r1 = core::sparse_marlin_matmul(a.view(), s24, cfg, 72, serial);
  const auto r2 = core::sparse_marlin_matmul(a.view(), s24, cfg, 72, two);
  const auto rh = core::sparse_marlin_matmul(a.view(), s24, cfg, 72, hw);
  expect_bit_identical(r1, r2);
  expect_bit_identical(r1, rh);
}

/// Sweep-over-kernel nesting: the outer fan-out drives inner kernels whose
/// own parallel_for degrades inline — results must still match serial.
TEST(KernelDeterminism, NestedSweepMatchesSerial) {
  const auto a = random_activations(8, 128, 91);
  const auto q = random_qweights(128, 256, 64, 92);
  const auto mw = layout::marlin_repack(q);
  core::KernelConfig cfg;

  const SimContext serial(1);
  const SimContext ctx(3);
  std::vector<core::FunctionalResult> serial_results(4), sweep_results(4);
  for (int s = 0; s < 4; ++s) {
    serial_results[static_cast<std::size_t>(s)] =
        core::marlin_matmul(a.view(), mw, cfg, 4 + s, serial);
  }
  ctx.parallel_for(0, 4, [&](std::int64_t s) {
    sweep_results[static_cast<std::size_t>(s)] = core::marlin_matmul(
        a.view(), mw, cfg, 4 + static_cast<int>(s), ctx);
  });
  for (int s = 0; s < 4; ++s) {
    expect_bit_identical(serial_results[static_cast<std::size_t>(s)],
                         sweep_results[static_cast<std::size_t>(s)]);
  }
}

}  // namespace
}  // namespace marlin
