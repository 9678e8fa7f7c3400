// Multi-GPU parallel serving model: rank-grid partition invariants,
// per-rank weight shards and KV budgets (incl. the clamp-to-zero error
// path), interconnect pricing, TP=1/PP=1 equivalence to the legacy
// single-device path, and the bit-identical-across-threads contract for
// the per-rank Worker path, plus every step price checked bit-for-bit
// against the frozen formulas in reference_step_model.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "reference_step_model.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"

namespace marlin::serve::parallel {
namespace {

EngineConfig a100_cfg(ModelConfig model = llama2_70b(),
                      WeightFormat fmt = WeightFormat::kMarlin) {
  EngineConfig cfg;
  cfg.model = std::move(model);
  cfg.gpu = gpusim::a100_80g();
  cfg.format = fmt;
  return cfg;
}

// ------------------------------------------------------------- config

TEST(ParallelConfig, ValidationAndDerivedQuantities) {
  ParallelConfig pc;
  EXPECT_TRUE(pc.trivial());
  EXPECT_EQ(pc.world_size(), 1);
  EXPECT_EQ(pc.effective_microbatches(), 1);

  pc = {2, 4, 0};
  EXPECT_FALSE(pc.trivial());
  EXPECT_EQ(pc.world_size(), 8);
  EXPECT_EQ(pc.effective_microbatches(), 4);  // defaults to one per stage
  EXPECT_EQ(pc.to_string(), "tp2 pp4");
  pc.microbatches = 8;
  EXPECT_EQ(pc.effective_microbatches(), 8);
  EXPECT_EQ(pc.to_string(), "tp2 pp4 mb8");

  EXPECT_THROW(ParallelConfig({0, 1, 0}).validate(), Error);
  EXPECT_THROW(ParallelConfig({1, 0, 0}).validate(), Error);
  EXPECT_THROW(ParallelConfig({1, 1, -1}).validate(), Error);

  pc = {4, 1, 0};
  pc.comm_buckets = 4;
  EXPECT_EQ(pc.to_string(), "tp4 pp1 cb4");
  pc.comm_buckets = 0;
  EXPECT_THROW(pc.validate(), Error);
}

// ------------------------------------------------------------- workers

TEST(Worker, StagePartitionCoversEveryLayerOnce) {
  const Engine engine(a100_cfg());
  const index_t layers = engine.config().model.num_layers;
  for (const int pp : {1, 2, 3, 4, 7}) {
    const ParallelConfig pc{1, pp, 0};
    index_t covered = 0;
    index_t next_layer = 0;
    for (int stage = 0; stage < pp; ++stage) {
      const Worker w(engine, pc, {0, stage});
      EXPECT_EQ(w.first_layer(), next_layer) << "pp=" << pp << " s=" << stage;
      // Balanced to within one layer.
      EXPECT_LE(std::abs(w.num_layers() - layers / pp), 1);
      EXPECT_EQ(w.has_embedding(), stage == 0);
      EXPECT_EQ(w.has_lm_head(), stage == pp - 1);
      covered += w.num_layers();
      next_layer = w.first_layer() + w.num_layers();
    }
    EXPECT_EQ(covered, layers) << "pp=" << pp;
  }
  // More stages than layers is refused.
  const Engine tiny(a100_cfg(llama2_7b()));
  EXPECT_THROW(Worker(tiny, {1, 64, 0}, {0, 0}), Error);
}

TEST(Worker, WeightShardsSumToTheWholeModel) {
  const Engine engine(a100_cfg());
  const auto& model = engine.config().model;
  const double quantized_blocks = model.params_per_block() *
                                  static_cast<double>(model.num_layers) *
                                  engine.weight_bits() / 8.0;
  const double fp16_embed_and_head = 2.0 * model.embedding_params() * 2.0;
  for (const auto& pc : {ParallelConfig{1, 1, 0}, ParallelConfig{2, 1, 0},
                         ParallelConfig{2, 4, 0}, ParallelConfig{4, 2, 0}}) {
    double total = 0.0;
    for (int stage = 0; stage < pc.pipeline_parallel; ++stage) {
      for (int tp = 0; tp < pc.tensor_parallel; ++tp) {
        total += Worker(engine, pc, {tp, stage}).weight_shard_bytes();
      }
    }
    EXPECT_NEAR(total, quantized_blocks + fp16_embed_and_head,
                1e-3 * total)
        << pc.to_string();
  }
}

TEST(Worker, KvBytesScaleWithStageLayersAndTpDegree) {
  const Engine engine(a100_cfg());
  const Worker whole(engine, {1, 1, 0}, {0, 0});
  EXPECT_EQ(whole.kv_bytes_per_token(), engine.kv_bytes_per_token());
  const Worker half_tp(engine, {2, 1, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(half_tp.kv_bytes_per_token(),
                   whole.kv_bytes_per_token() / 2.0);
  const Worker half_pp(engine, {1, 2, 0}, {0, 1});
  EXPECT_DOUBLE_EQ(half_pp.kv_bytes_per_token(),
                   whole.kv_bytes_per_token() / 2.0);
}

TEST(Worker, PerRankBudgetGrowsWithShardingAndFeedsBlockManager) {
  const Engine engine(a100_cfg());
  const Worker whole(engine, {1, 1, 0}, {0, 0});
  const Worker sharded(engine, {4, 1, 0}, {0, 0});
  // A quarter of the weights and a quarter of the per-token KV leave far
  // more than the single-device block count.
  EXPECT_GT(sharded.kv_block_budget(16), 2 * whole.kv_block_budget(16));
}

TEST(Worker, OversizedShardClampsToZeroWithClearErrorNotUnderflow) {
  // Falcon-180B FP16 is ~360 GB; half of it still overflows an A100.
  const Engine engine(a100_cfg(falcon_180b(), WeightFormat::kFp16));
  const Worker w(engine, {1, 2, 0}, {0, 0});
  EXPECT_GT(w.weight_shard_bytes(), engine.config().gpu.hbm_bytes());
  try {
    (void)w.kv_block_budget(16);
    FAIL() << "oversized shard must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("clamps to 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exceed"), std::string::npos) << msg;
  }
  // The legacy single-device derivation shares the guard.
  EXPECT_THROW((void)sched::derive_kv_block_budget(engine, 16), Error);
}

// -------------------------------------------------------- interconnect

TEST(Interconnect, RingAllReduceAndTransferPricing) {
  const Interconnect link{100e9, 5e-6};
  EXPECT_DOUBLE_EQ(link.allreduce_seconds(1e9, 1), 0.0);
  // 2(g-1)/g of the payload over the wire plus 2(g-1) latency hops.
  EXPECT_DOUBLE_EQ(link.allreduce_seconds(1e9, 2),
                   1e9 / 100e9 + 2.0 * 5e-6);
  EXPECT_GT(link.allreduce_seconds(1e9, 8), link.allreduce_seconds(1e9, 2));
  EXPECT_DOUBLE_EQ(link.transfer_seconds(2e9), 0.02 + 5e-6);
  EXPECT_THROW((void)link.allreduce_seconds(-1.0, 2), Error);
}

// ------------------------------------------------------ parallel engine

TEST(ParallelEngine, TrivialConfigEqualsLegacyEngineBitForBit) {
  const Engine engine(a100_cfg());
  const ParallelEngine pe(engine, {1, 1, 0});
  for (const index_t batch : {index_t{1}, index_t{8}, index_t{64}}) {
    EXPECT_EQ(pe.decode_step_seconds(batch, 300.0),
              engine.decode_step_seconds(batch, 300.0));
    EXPECT_EQ(pe.prefill_seconds(batch, 64),
              engine.prefill_seconds(batch, 64));
  }
  // The serving adapter takes the identical path: every metric matches.
  ServingConfig sc;
  sc.qps = 4.0;
  sc.duration_s = 15.0;
  const auto legacy = simulate_cluster_detailed(engine, sc).sched;
  sc.parallel = {1, 1, 0};
  const auto routed = simulate_cluster_detailed(engine, sc).sched;
  EXPECT_EQ(legacy.metrics.mean_tpot_ms, routed.metrics.mean_tpot_ms);
  EXPECT_EQ(legacy.metrics.mean_ttft_ms, routed.metrics.mean_ttft_ms);
  EXPECT_EQ(legacy.metrics.p90_tpot_ms, routed.metrics.p90_tpot_ms);
  EXPECT_EQ(legacy.metrics.completed, routed.metrics.completed);
  EXPECT_EQ(legacy.decode_steps, routed.decode_steps);
  // A malformed config is rejected even on the trivial path (tp/pp of 1
  // must not mask a bad microbatch count).
  sc.parallel = {1, 1, -5};
  EXPECT_THROW((void)simulate_cluster_detailed(engine, sc), Error);
  // Every step model rejects the same malformed queries and prices an
  // empty prompt alike.
  const ParallelEngine tp2(engine, {2, 1, 0});
  for (const StepModel* m : {static_cast<const StepModel*>(&engine),
                             static_cast<const StepModel*>(&pe),
                             static_cast<const StepModel*>(&tp2)}) {
    EXPECT_THROW((void)m->decode_step_seconds(0, 100.0), Error);
    EXPECT_THROW((void)m->decode_step_seconds(2, -100.0), Error);
    EXPECT_THROW((void)m->verify_step_seconds(2, 100.0, -1), Error);
    EXPECT_THROW((void)m->prefill_seconds(0, 4), Error);
    EXPECT_THROW((void)m->prefill_seconds(4, -5), Error);
    EXPECT_GT(m->prefill_seconds(4, 0), engine.config().prefill_overhead_s);
  }
  EXPECT_THROW((void)tp2.decode_breakdown(2, -100.0), Error);
  EXPECT_EQ(pe.prefill_seconds(4, 0), engine.prefill_seconds(4, 0));
}

TEST(ParallelEngine, TensorParallelSpeedsUpButPaysAllReduce) {
  const Engine engine(a100_cfg());
  const ParallelEngine tp2(engine, {2, 1, 0});
  const double t1 = engine.decode_step_seconds(64, 512.0);
  const double t2 = tp2.decode_step_seconds(64, 512.0);
  EXPECT_LT(t2, t1);  // sharded compute wins at batch 64
  EXPECT_GT(t2, (t1 - engine.config().step_overhead_s) / 2.0);  // Amdahl+comm
  const auto b = tp2.decode_breakdown(64, 512.0);
  EXPECT_GT(b.tp_comm_s, 0.0);
  EXPECT_EQ(b.pp_send_s, 0.0);
  EXPECT_EQ(b.total_s, t2);  // breakdown total matches the memoised step
}

TEST(ParallelEngine, PipelineAddsBubbleAndSendOverhead) {
  const Engine engine(a100_cfg());
  const ParallelEngine pp2(engine, {1, 2, 0});
  const double t1 = engine.decode_step_seconds(32, 512.0);
  const double t2 = pp2.decode_step_seconds(32, 512.0);
  // Two serialized half-stacks plus a boundary send can't beat one device
  // on a latency (single-step) basis.
  EXPECT_GT(t2, t1 - engine.config().step_overhead_s);
  const auto b = pp2.decode_breakdown(32, 512.0);
  EXPECT_EQ(b.microbatches, 2);
  EXPECT_DOUBLE_EQ(b.bubble_fraction, 1.0 / 3.0);
  EXPECT_GT(b.pp_send_s, 0.0);
  // More microbatches shrink the bubble fraction.
  const ParallelEngine mb8(engine, {1, 2, 8});
  EXPECT_LT(mb8.decode_breakdown(32, 512.0).bubble_fraction,
            b.bubble_fraction);
}

// ------------------------------------------------- comm/compute overlap

TEST(CommOverlap, OneBucketIsBitIdenticalToTheSerializedModel) {
  const Engine engine(a100_cfg());
  const ParallelEngine serialized(engine, {4, 1, 0});
  ParallelConfig pc{4, 1, 0};
  pc.comm_buckets = 1;
  const ParallelEngine explicit_one(engine, pc);
  for (const index_t batch : {index_t{1}, index_t{16}, index_t{64}}) {
    EXPECT_EQ(explicit_one.decode_step_seconds(batch, 400.0),
              serialized.decode_step_seconds(batch, 400.0));
    const auto b = explicit_one.decode_breakdown(batch, 400.0);
    EXPECT_EQ(b.overlap_saved_s, 0.0);
  }
}

TEST(CommOverlap, BucketsOverlapCommAndNeverSlowAStepDown) {
  const Engine engine(a100_cfg());
  const ParallelEngine serialized(engine, {4, 1, 0});
  ParallelConfig pc{4, 1, 0};
  pc.comm_buckets = 4;
  const ParallelEngine bucketed(engine, pc);
  bool saved_somewhere = false;
  for (const index_t batch : {index_t{1}, index_t{8}, index_t{64}}) {
    const double serial_t = serialized.decode_step_seconds(batch, 512.0);
    const auto b = bucketed.decode_breakdown(batch, 512.0);
    // Overlap is clamped to min(serialized, pipelined): never worse.
    EXPECT_LE(b.total_s, serial_t);
    EXPECT_GE(b.overlap_saved_s, 0.0);
    // The saved component is exactly the serialized-minus-overlapped gap.
    EXPECT_NEAR(b.total_s + b.overlap_saved_s, serial_t, 1e-12);
    if (b.overlap_saved_s > 0.0) saved_somewhere = true;
    // Prefill pricing is untouched by decode-side overlap.
    EXPECT_EQ(bucketed.prefill_seconds(batch, 64),
              serialized.prefill_seconds(batch, 64));
  }
  EXPECT_TRUE(saved_somewhere);
}

TEST(CommOverlap, NoTensorParallelMeansNothingToOverlap) {
  const Engine engine(a100_cfg());
  ParallelConfig pc{1, 2, 0};
  pc.comm_buckets = 8;
  const ParallelEngine pe(engine, pc);
  const ParallelEngine base(engine, {1, 2, 0});
  EXPECT_EQ(pe.decode_step_seconds(32, 256.0),
            base.decode_step_seconds(32, 256.0));
  EXPECT_EQ(pe.decode_breakdown(32, 256.0).overlap_saved_s, 0.0);
}

TEST(ParallelEngine, MinRankBudgetBindsAcrossAsymmetricStages) {
  const Engine engine(a100_cfg());
  const ParallelEngine pe(engine, {1, 4, 0});
  index_t min_budget = 0;
  for (const Worker& w : pe.workers()) {
    const index_t b = w.kv_block_budget(16);
    min_budget = min_budget == 0 ? b : std::min(min_budget, b);
  }
  EXPECT_EQ(pe.min_kv_block_budget(16), min_budget);
  EXPECT_EQ(pe.workers().size(), 4u);
}

TEST(ParallelEngine, RepeatRunsAreDeterministic) {
  const Engine engine(a100_cfg());
  ServingConfig sc;
  sc.qps = 6.0;
  sc.duration_s = 10.0;
  sc.parallel = {2, 1, 0};
  const auto a = simulate_cluster_detailed(engine, sc).sched;
  // A fresh ParallelEngine (cold memo) must reproduce the same bits.
  const auto b = simulate_cluster_detailed(engine, sc).sched;
  EXPECT_EQ(a.metrics.mean_tpot_ms, b.metrics.mean_tpot_ms);
  EXPECT_EQ(a.metrics.mean_ttft_ms, b.metrics.mean_ttft_ms);
  EXPECT_EQ(a.sim_end_s, b.sim_end_s);
}

// ------------------------------------------- frozen step-model reference

/// Counts bit-for-bit comparisons against the reference and reports the
/// first few mismatches (a broken formula would otherwise print thousands).
class BitChecker {
 public:
  void check(double got, double want, const std::string& what) {
    ++queries_;
    if (got == want) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << what << ": got " << got << ", reference " << want;
    }
  }
  [[nodiscard]] int queries() const { return queries_; }
  [[nodiscard]] int mismatches() const { return mismatches_; }

 private:
  int queries_ = 0;
  int mismatches_ = 0;
};

TEST(StepModelReference, EveryPriceMatchesTheFrozenFormulasBitForBit) {
  const index_t batches[] = {1, 7, 64, 128};
  const double contexts[] = {1.0, 63.9, 64.0, 1000.5};
  const index_t depths[] = {0, 1, 3};
  const index_t prompts[] = {1, 17, 512};
  const SimContext pool(4);
  BitChecker bits;
  for (const WeightFormat fmt : {WeightFormat::kFp16, WeightFormat::kMarlin,
                                 WeightFormat::kSparseMarlin}) {
    // Half of the grids run on an engine whose memos were filled on the
    // pool first, half on a cold one, so warm-up is covered too.
    const Engine cold(a100_cfg(llama2_7b(), fmt));
    const Engine warm(a100_cfg(llama2_7b(), fmt));
    warm.warm_decode_cache(pool, 128, 1000.5);
    int grid = 0;
    for (const int tp : {1, 2, 4}) {
      for (const int pp : {1, 2, 4}) {
        for (const int mb : {0, 3}) {
          for (const int cb : {1, 4}) {
            ParallelConfig pc{tp, pp, mb};
            pc.comm_buckets = cb;
            const bool warmed = grid++ % 2 == 0;
            const Engine& engine = warmed ? warm : cold;
            const ParallelEngine pe(engine, pc);
            if (warmed) pe.warm_decode_cache(pool, 128, 1000.5);
            // The bare Engine is checked against the frozen one-rank grid,
            // and against a live one-rank ParallelEngine.
            const ParallelEngine one_rank(engine, {1, 1, 0});
            const std::string at =
                std::string(to_string(fmt)) + " " + pc.to_string();
            for (const index_t batch : batches) {
              for (const index_t prompt : prompts) {
                const std::string q = at + " b" + std::to_string(batch) +
                                      " prompt" + std::to_string(prompt);
                bits.check(engine.prefill_seconds(batch, prompt),
                           reference::parallel_prefill_seconds(one_rank, batch,
                                                               prompt),
                           q + " engine prefill");
                bits.check(engine.prefill_seconds(batch, prompt),
                           one_rank.prefill_seconds(batch, prompt),
                           q + " engine vs one-rank prefill");
                bits.check(pe.prefill_seconds(batch, prompt),
                           reference::parallel_prefill_seconds(pe, batch,
                                                               prompt),
                           q + " parallel prefill");
                for (const Worker& w : pe.workers()) {
                  const index_t tokens = batch * prompt;
                  bits.check(w.prefill_compute_seconds(tokens, prompt),
                             reference::worker_prefill_compute_seconds(
                                 pe, w, tokens, prompt),
                             q + " worker prefill");
                }
              }
              for (const double ctx : contexts) {
                const std::string q = at + " b" + std::to_string(batch) +
                                      " ctx" + std::to_string(ctx);
                const StepBreakdown got = pe.decode_breakdown(batch, ctx);
                const StepBreakdown want =
                    reference::parallel_decode_breakdown(pe, batch, ctx);
                bits.check(got.total_s, want.total_s, q + " total_s");
                bits.check(got.stage_compute_s, want.stage_compute_s,
                           q + " stage_compute_s");
                bits.check(got.tp_comm_s, want.tp_comm_s, q + " tp_comm_s");
                bits.check(got.pp_send_s, want.pp_send_s, q + " pp_send_s");
                bits.check(got.microbatches, want.microbatches,
                           q + " microbatches");
                bits.check(got.bubble_fraction, want.bubble_fraction,
                           q + " bubble_fraction");
                bits.check(got.overlap_saved_s, want.overlap_saved_s,
                           q + " overlap_saved_s");
                bits.check(engine.decode_step_seconds(batch, ctx),
                           reference::parallel_decode_step_seconds(
                               one_rank, batch, ctx),
                           q + " engine decode");
                bits.check(engine.decode_step_seconds(batch, ctx),
                           one_rank.decode_step_seconds(batch, ctx),
                           q + " engine vs one-rank decode");
                bits.check(pe.decode_step_seconds(batch, ctx),
                           reference::parallel_decode_step_seconds(pe, batch,
                                                                   ctx),
                           q + " parallel decode");
                for (const index_t depth : depths) {
                  const std::string qd = q + " depth" + std::to_string(depth);
                  bits.check(engine.verify_step_seconds(batch, ctx, depth),
                             reference::parallel_verify_step_seconds(
                                 one_rank, batch, ctx, depth),
                             qd + " engine verify");
                  bits.check(engine.verify_step_seconds(batch, ctx, depth),
                             one_rank.verify_step_seconds(batch, ctx, depth),
                             qd + " engine vs one-rank verify");
                  bits.check(pe.verify_step_seconds(batch, ctx, depth),
                             reference::parallel_verify_step_seconds(
                                 pe, batch, ctx, depth),
                             qd + " parallel verify");
                }
                for (const Worker& w : pe.workers()) {
                  bits.check(w.step_compute_seconds(batch, ctx, 0),
                             reference::worker_decode_compute_seconds(
                                 pe, w, batch, ctx),
                             q + " worker decode");
                  for (const int buckets : {1, cb}) {
                    bits.check(
                        w.overlapped_stage_seconds(batch, ctx, 0, buckets),
                        reference::worker_overlapped_decode_stage_seconds(
                            pe, w, batch, ctx, buckets),
                        q + " worker overlapped stage");
                  }
                  for (const index_t depth : depths) {
                    const std::string qd =
                        q + " worker verify depth" + std::to_string(depth);
                    const double compute =
                        reference::worker_verify_compute_seconds(pe, w, batch,
                                                                 ctx, depth);
                    bits.check(w.step_compute_seconds(batch, ctx, depth),
                               compute, qd);
                    // One bucket is the serialized verification stage.
                    bits.check(
                        w.overlapped_stage_seconds(batch, ctx, depth, 1),
                        compute + reference::worker_tp_comm_seconds(
                                      pe, w, batch * (depth + 1)),
                        qd + " serialized stage");
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The single-device KV budget is the one-rank grid's, whatever the
  // device, format or block size.
  for (const auto& gpu :
       {gpusim::a100_80g(), gpusim::rtxa6000(), gpusim::a10()}) {
    for (const WeightFormat fmt : {WeightFormat::kFp16, WeightFormat::kMarlin,
                                   WeightFormat::kSparseMarlin}) {
      EngineConfig cfg = a100_cfg(llama2_7b(), fmt);
      cfg.gpu = gpu;
      const Engine engine(cfg);
      const ParallelEngine one_rank(engine, {1, 1, 0});
      for (const index_t block_size : {8, 16, 32}) {
        bits.check(
            static_cast<double>(
                sched::derive_kv_block_budget(engine, block_size)),
            static_cast<double>(one_rank.min_kv_block_budget(block_size)),
            gpu.name + " " + to_string(fmt) + " block" +
                std::to_string(block_size) + " kv budget");
      }
    }
  }
  EXPECT_EQ(bits.mismatches(), 0) << "of " << bits.queries() << " queries";
}

}  // namespace
}  // namespace marlin::serve::parallel
