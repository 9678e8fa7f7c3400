// Serving engine: model catalog sanity, decode/prefill step model,
// tensor parallelism, generation benchmark, discrete-event serving sim.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/generation.hpp"
#include "serve/model_config.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"

namespace marlin::serve {
namespace {

TEST(ModelCatalog, ParameterCountsMatchPublishedSizes) {
  EXPECT_NEAR(llama2_7b().num_params() / 1e9, 6.7, 0.3);
  EXPECT_NEAR(llama2_13b().num_params() / 1e9, 13.0, 0.5);
  EXPECT_NEAR(llama1_33b().num_params() / 1e9, 32.5, 1.5);
  EXPECT_NEAR(llama1_65b().num_params() / 1e9, 65.0, 2.0);
  EXPECT_NEAR(llama2_70b().num_params() / 1e9, 69.0, 2.5);
  EXPECT_NEAR(yi_34b().num_params() / 1e9, 34.0, 1.5);
  EXPECT_NEAR(falcon_180b().num_params() / 1e9, 180.0, 8.0);
}

TEST(ModelCatalog, LayerShapesMatchArchitecture) {
  const auto layers = block_linear_layers(llama2_7b());
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_EQ(layers[0].name, "qkv_proj");
  EXPECT_EQ(layers[0].k, 4096);
  EXPECT_EQ(layers[0].n, 3 * 4096);  // MHA: q + k + v all 4096
  EXPECT_EQ(layers[2].n, 2 * 11008);
  // GQA models have slimmer KV projections.
  const auto l70 = block_linear_layers(llama2_70b());
  EXPECT_EQ(l70[0].n, 8192 + 2 * 8 * 128);
}

TEST(ModelCatalog, LookupAndFalconShape) {
  EXPECT_EQ(model_by_name("llama-2-7b").hidden, 4096);
  EXPECT_THROW(model_by_name("gpt-5"), marlin::Error);
  const auto f = falcon_180b();
  EXPECT_FALSE(f.gated_mlp);
  const auto fl = block_linear_layers(f);
  ASSERT_EQ(fl.size(), 4u);
  EXPECT_EQ(fl[2].n, f.intermediate);
}

EngineConfig a10_7b(WeightFormat fmt) {
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::a10();
  cfg.format = fmt;
  return cfg;
}

TEST(Engine, MarlinSpeedupAtBatch1MatchesTable2) {
  // Paper Table 2: Llama-2-7B on A10, batch 1 => 2.93x.
  const Engine fp16(a10_7b(WeightFormat::kFp16));
  const Engine marlin(a10_7b(WeightFormat::kMarlin));
  const double s = fp16.decode_step_seconds(1, 128.0) /
                   marlin.decode_step_seconds(1, 128.0);
  EXPECT_GT(s, 2.5);
  EXPECT_LT(s, 3.4);
}

TEST(Engine, SpeedupDecaysWithBatchLikeTable2Row1) {
  // Table 2 row (7B, A10): 2.93 ... 2.74 (16) ... 1.78 (64) ... 1.20 (128).
  const Engine fp16(a10_7b(WeightFormat::kFp16));
  const Engine marlin(a10_7b(WeightFormat::kMarlin));
  auto s = [&](index_t b) {
    return fp16.decode_step_seconds(b, 128.0) /
           marlin.decode_step_seconds(b, 128.0);
  };
  EXPECT_GT(s(16), 2.2);
  EXPECT_GT(s(16), s(64));
  EXPECT_GT(s(64), s(128));
  EXPECT_LT(s(128), 1.8);
  EXPECT_GT(s(128), 0.95);
}

TEST(Engine, SparseMarlinFasterThanMarlin) {
  const Engine marlin(a10_7b(WeightFormat::kMarlin));
  const Engine sparse(a10_7b(WeightFormat::kSparseMarlin));
  for (const index_t b : {1, 16, 64}) {
    EXPECT_LT(sparse.decode_step_seconds(b, 128.0),
              marlin.decode_step_seconds(b, 128.0))
        << "batch " << b;
  }
}

TEST(Engine, DecodeMonotoneInBatchAndContext) {
  const Engine e(a10_7b(WeightFormat::kMarlin));
  EXPECT_LE(e.decode_step_seconds(1, 128.0), e.decode_step_seconds(8, 128.0));
  EXPECT_LE(e.decode_step_seconds(8, 128.0), e.decode_step_seconds(64, 128.0));
  EXPECT_LT(e.decode_step_seconds(16, 128.0),
            e.decode_step_seconds(16, 4096.0));
  // Malformed queries throw one line; an empty prompt still prices its
  // sequences' first token.
  for (const auto& bad : std::vector<std::function<double()>>{
           [&] { return e.decode_step_seconds(0, 128.0); },
           [&] { return e.decode_step_seconds(2, -100.0); },
           [&] { return e.verify_step_seconds(2, 128.0, -1); },
           [&] { return e.prefill_seconds(0, 4); },
           [&] { return e.prefill_seconds(4, -5); }}) {
    try {
      (void)bad();
      ADD_FAILURE() << "a malformed step query must throw";
    } catch (const Error& err) {
      EXPECT_EQ(std::string(err.what()).find('\n'), std::string::npos);
    }
  }
  EXPECT_GT(e.prefill_seconds(4, 0), e.config().prefill_overhead_s);
}

TEST(Engine, RejectsAModelWithoutLayers) {
  // ModelConfig::num_layers defaults to 0; such a model has no step to
  // price, so the Engine refuses it with one line naming the model.
  EngineConfig cfg = a10_7b(WeightFormat::kMarlin);
  cfg.model.name = "headless";
  cfg.model.num_layers = 0;
  try {
    const Engine e(cfg);
    ADD_FAILURE() << "an Engine over a zero-layer model must throw";
  } catch (const Error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("headless"), std::string::npos) << what;
    EXPECT_NE(what.find("0 transformer layers"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Engine, WeightBytesPerGpuShrinkWithFormatAndTp) {
  EngineConfig cfg = a10_7b(WeightFormat::kFp16);
  const index_t layers = cfg.model.num_layers;
  const double fp16_bytes = Engine(cfg).weight_bytes(layers, true, true, 1);
  cfg.format = WeightFormat::kMarlin;
  const Engine marlin(cfg);
  const double q_bytes = marlin.weight_bytes(layers, true, true, 1);
  // Only the blocks shrink with the format: MARLIN quantizes the linear
  // layers, and the embedding and LM head stay FP16.
  const double fp16_ends = 2.0 * cfg.model.embedding_params() * 2.0;
  EXPECT_NEAR((fp16_bytes - fp16_ends) / (q_bytes - fp16_ends), 16.0 / 4.125,
              1e-9);
  // A one-rank grid holds exactly the single-device charge; under tensor
  // parallelism every rank holds half of it.
  const double tp1 =
      parallel::ParallelEngine(marlin, {1, 1, 0}).max_weight_shard_bytes();
  const double tp2 =
      parallel::ParallelEngine(marlin, {2, 1, 0}).max_weight_shard_bytes();
  EXPECT_EQ(tp1, q_bytes);
  EXPECT_EQ(tp2, tp1 / 2);
}

TEST(Engine, TensorParallelismSpeedsUpBigModelsButSubLinearly) {
  EngineConfig cfg;
  cfg.model = llama2_70b();
  cfg.gpu = gpusim::a100_80g();
  cfg.format = WeightFormat::kFp16;
  const Engine engine(cfg);
  const double t2 =
      parallel::ParallelEngine(engine, {2, 1, 0}).decode_step_seconds(8, 128.0);
  const double t8 =
      parallel::ParallelEngine(engine, {8, 1, 0}).decode_step_seconds(8, 128.0);
  EXPECT_LT(t8, t2);
  EXPECT_GT(t8, t2 / 4.0);  // far from linear: comm + overheads
}

TEST(Engine, MoreGpusShrinkMarlinAdvantage) {
  // Table 2, Llama-2-70B on A100 at batch 1: the paper measures 2.55x on
  // TP2 and 1.38x on TP8; the ring-priced model gives about 2.6x and 1.25x.
  auto speedup_at = [&](int gpus) {
    EngineConfig cfg;
    cfg.model = llama2_70b();
    cfg.gpu = gpusim::a100_80g();
    cfg.format = WeightFormat::kFp16;
    const Engine fp16(cfg);
    cfg.format = WeightFormat::kMarlin;
    const Engine marlin(cfg);
    const parallel::ParallelConfig tp{gpus, 1, 0};
    return parallel::ParallelEngine(fp16, tp).decode_step_seconds(1, 128.0) /
           parallel::ParallelEngine(marlin, tp).decode_step_seconds(1, 128.0);
  };
  const double s2 = speedup_at(2);
  const double s8 = speedup_at(8);
  EXPECT_GT(s2, s8);
  EXPECT_GT(s2, 1.7);
  EXPECT_LT(s8, 2.1);
  EXPECT_GT(s8, 1.0);
}

TEST(Generation, Fig14ShapeAndMagnitude) {
  // Fig 14: Llama-2-7B on A10, 64 in / 64 out. FP16 at batch 1 takes
  // ~1.1-1.6 s for tokens 2..64; MARLIN ~3x less.
  const Engine fp16(a10_7b(WeightFormat::kFp16));
  const Engine marlin(a10_7b(WeightFormat::kMarlin));
  const auto g_fp16 = generation_time(fp16, 1, 64, 64);
  const auto g_marlin = generation_time(marlin, 1, 64, 64);
  EXPECT_GT(g_fp16.decode_seconds, 0.8);
  EXPECT_LT(g_fp16.decode_seconds, 2.2);
  const double s = g_fp16.decode_seconds / g_marlin.decode_seconds;
  EXPECT_GT(s, 2.4);
  EXPECT_LT(s, 3.4);
}

TEST(Generation, ThroughputRisesWithBatch) {
  const Engine marlin(a10_7b(WeightFormat::kMarlin));
  const auto g1 = generation_time(marlin, 1, 64, 64);
  const auto g16 = generation_time(marlin, 16, 64, 64);
  EXPECT_GT(g16.output_tokens_per_s, 6.0 * g1.output_tokens_per_s);
}

EngineConfig a6000_7b(WeightFormat fmt) {
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::rtxa6000();
  cfg.format = fmt;
  return cfg;
}

TEST(ServingSim, CompletesAllRequestsAtLowLoad) {
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  ServingConfig sc;
  sc.qps = 1.0;
  sc.duration_s = 30.0;
  const auto m = simulate_cluster_detailed(marlin, sc).sched.metrics;
  EXPECT_GT(m.completed, 15);
  EXPECT_GT(m.mean_tpot_ms, 0.0);
  EXPECT_GT(m.mean_ttft_ms, 0.0);
}

TEST(ServingSim, MarlinReducesTpotRoughly3x) {
  // Fig 15: ~22.5 ms (FP16) vs ~8 ms (MARLIN) at 1 QPS on A6000.
  const Engine fp16(a6000_7b(WeightFormat::kFp16));
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  ServingConfig sc;
  sc.qps = 1.0;
  sc.duration_s = 40.0;
  const auto mf = simulate_cluster_detailed(fp16, sc).sched.metrics;
  const auto mm = simulate_cluster_detailed(marlin, sc).sched.metrics;
  const double s = mf.mean_tpot_ms / mm.mean_tpot_ms;
  EXPECT_GT(s, 2.0);
  EXPECT_LT(s, 3.8);
}

TEST(ServingSim, TpotGrowsWithQps) {
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  ServingConfig lo;
  lo.qps = 1.0;
  lo.duration_s = 30.0;
  ServingConfig hi = lo;
  hi.qps = 10.0;
  const auto mlo = simulate_cluster_detailed(marlin, lo).sched.metrics;
  const auto mhi = simulate_cluster_detailed(marlin, hi).sched.metrics;
  EXPECT_GT(mhi.mean_tpot_ms, mlo.mean_tpot_ms * 0.99);
  EXPECT_GT(mhi.mean_batch, mlo.mean_batch);
}

TEST(ServingSim, FasterKernelSeesSmallerAverageBatch) {
  // The paper's explanation for speedups growing with QPS.
  const Engine fp16(a6000_7b(WeightFormat::kFp16));
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  ServingConfig sc;
  sc.qps = 5.0;
  sc.duration_s = 40.0;
  const auto mf = simulate_cluster_detailed(fp16, sc).sched.metrics;
  const auto mm = simulate_cluster_detailed(marlin, sc).sched.metrics;
  EXPECT_LT(mm.mean_batch, mf.mean_batch);
}

TEST(ServingSim, TtftImprovementSmallerThanTpot) {
  // Fig 16: TTFT gains (~1.5-1.9x) are smaller than TPOT gains (~2.8x+)
  // because prefill is compute-bound.
  const Engine fp16(a6000_7b(WeightFormat::kFp16));
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  ServingConfig sc;
  sc.qps = 2.5;
  sc.duration_s = 40.0;
  const auto mf = simulate_cluster_detailed(fp16, sc).sched.metrics;
  const auto mm = simulate_cluster_detailed(marlin, sc).sched.metrics;
  const double tpot_gain = mf.mean_tpot_ms / mm.mean_tpot_ms;
  const double ttft_gain = mf.mean_ttft_ms / mm.mean_ttft_ms;
  EXPECT_GT(ttft_gain, 1.0);
  EXPECT_LT(ttft_gain, tpot_gain);
}

TEST(ServingSim, LoneRequestFollowsTheStepModelClosedForm) {
  // Zero load: the first token lands one batch-1 prefill after arrival,
  // each later one a batch-1 decode step at its context later. This ties
  // the serving stack to the step model without a frozen copy between.
  const Engine marlin(a6000_7b(WeightFormat::kMarlin));
  const auto check = [&](parallel::ParallelConfig grid, double arrival_s,
                         index_t prompt, index_t output) {
    SCOPED_TRACE(grid.to_string());
    ServingConfig sc;
    sc.parallel = grid;
    Simulation sim(marlin, sc);
    sim.trace = {sched::TraceRequest{arrival_s, prompt, output}};
    const cluster::ClusterStats cs = sim.run();
    ASSERT_EQ(cs.sched.requests.size(), 1u);
    const StepModel& model = sim.scheduler().model();
    double t = arrival_s + model.prefill_seconds(1, prompt);
    EXPECT_EQ(cs.sched.requests[0].first_token_s, t);
    for (index_t g = 1; g < output; ++g) {
      t += model.decode_step_seconds(1, static_cast<double>(prompt + g));
    }
    EXPECT_EQ(cs.sched.requests[0].finish_s, t);
  };
  check({}, 0.0, 64, 32);
  check({}, 1.25, 64, 32);
  check({4, 1, 0, 1}, 0.0, 100, 17);
  check({2, 2, 0, 1}, 0.5, 48, 9);
  check({}, 0.0, 64, 1);
}

}  // namespace
}  // namespace marlin::serve
