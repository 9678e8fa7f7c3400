#pragma once
// Per-rank worker model for tensor/pipeline-parallel serving.
//
// The world is a tensor_parallel x pipeline_parallel grid of ranks. Each
// worker is one rank: it owns
//
//   * its weight shard — a contiguous range of transformer blocks (the
//     rank's pipeline stage, balanced to within one layer, remainders on
//     the early stages) column/row-split across the tensor-parallel
//     group, plus the FP16 embedding table on stage 0 and the FP16 LM
//     head on the last stage;
//   * its KV blocks — a per-rank paged-cache budget derived from
//     `DeviceSpec::hbm_gb` minus the rank's weight shard (the rank only
//     caches KV for its own layers, sharded across TP). Block allocation
//     is mirrored across ranks in lockstep, so the scheduler drives one
//     logical BlockManager sized to the *minimum* rank budget;
//   * its compute time — `Engine::layer_range_seconds` over the stage's
//     layer range, which the ParallelEngine maxes over ranks.
//
// Workers are immutable models, safe to share across concurrent sweeps.

#include "serve/engine.hpp"
#include "serve/parallel/parallel_config.hpp"

namespace marlin::serve::parallel {

/// Coordinates of one rank in the parallelism grid.
struct RankId {
  int tp = 0;     // position in the tensor-parallel group
  int stage = 0;  // pipeline stage
};

class Worker {
 public:
  Worker(const Engine& engine, const ParallelConfig& cfg, RankId rank);

  [[nodiscard]] const RankId& rank() const { return rank_; }
  [[nodiscard]] index_t first_layer() const { return first_layer_; }
  /// Transformer blocks this rank's pipeline stage owns.
  [[nodiscard]] index_t num_layers() const { return num_layers_; }
  [[nodiscard]] bool has_embedding() const { return rank_.stage == 0; }
  [[nodiscard]] bool has_lm_head() const;

  /// Bytes of weights resident on this rank: `Engine::weight_bytes` of the
  /// stage's blocks plus the FP16 embedding/head where owned, divided
  /// across the tensor-parallel group.
  [[nodiscard]] double weight_shard_bytes() const;
  /// KV bytes one context token occupies on THIS rank (its layers only,
  /// KV heads sharded across TP).
  [[nodiscard]] double kv_bytes_per_token() const;
  /// Paged KV block budget of this rank: HBM minus the weight shard minus
  /// an activation reserve, in blocks of `block_size` tokens. Throws with
  /// a clear deficit message when the shard alone overflows the device.
  [[nodiscard]] index_t kv_block_budget(index_t block_size) const;

  /// Compute seconds of one decode or speculative-verification microbatch
  /// of `seqs` sequences on this rank, each scoring `1 + depth` candidate
  /// tokens: linear layers (and LM head, where owned) run at
  /// `seqs * (depth + 1)` tokens while each sequence's paged KV is streamed
  /// once per layer. A decode microbatch is depth 0. No communication.
  [[nodiscard]] double step_compute_seconds(index_t seqs, double avg_context,
                                            index_t depth) const;
  /// Compute seconds of one prefill microbatch totalling `mb_tokens` new
  /// tokens of `prompt_tokens`-long prompts on this rank.
  [[nodiscard]] double prefill_compute_seconds(index_t mb_tokens,
                                               index_t prompt_tokens) const;
  /// Tensor-parallel all-reduce seconds this rank pays per microbatch of
  /// `tokens` (two ring all-reduces per owned transformer block).
  [[nodiscard]] double tp_comm_seconds(index_t tokens) const;
  /// Per-microbatch stage seconds of `step_compute_seconds` plus its
  /// all-reduces, with each block's all-reduces split into `comm_buckets`
  /// chunks whose transfer overlaps the next block's compute.
  /// `comm_buckets <= 1` (or TP=1) reproduces the serialized
  /// `step_compute_seconds + tp_comm_seconds` bit-for-bit; the result is
  /// never above that serialized schedule.
  [[nodiscard]] double overlapped_stage_seconds(index_t seqs,
                                                double avg_context,
                                                index_t depth,
                                                int comm_buckets) const;

 private:
  const Engine* engine_;
  ParallelConfig cfg_;
  RankId rank_;
  index_t first_layer_ = 0;
  index_t num_layers_ = 0;
};

}  // namespace marlin::serve::parallel
