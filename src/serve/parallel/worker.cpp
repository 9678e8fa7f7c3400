#include "serve/parallel/worker.hpp"

#include <algorithm>
#include <sstream>

#include "serve/parallel/interconnect.hpp"
#include "serve/sched/block_manager.hpp"
#include "util/error.hpp"

namespace marlin::serve::parallel {

Worker::Worker(const Engine& engine, const ParallelConfig& cfg, RankId rank)
    : engine_(&engine), cfg_(cfg), rank_(rank) {
  cfg_.validate();
  MARLIN_CHECK(rank_.tp >= 0 && rank_.tp < cfg_.tensor_parallel,
               "tp rank " << rank_.tp << " outside tensor-parallel group of "
                          << cfg_.tensor_parallel);
  MARLIN_CHECK(rank_.stage >= 0 && rank_.stage < cfg_.pipeline_parallel,
               "stage " << rank_.stage << " outside pipeline of "
                        << cfg_.pipeline_parallel);
  const index_t layers = engine.config().model.num_layers;
  MARLIN_CHECK(cfg_.pipeline_parallel <= layers,
               "pipeline-parallel degree " << cfg_.pipeline_parallel
                                           << " exceeds the model's " << layers
                                           << " layers");
  // Balanced contiguous partition; the first `rem` stages take one extra
  // layer (the last stage already carries the LM head).
  const index_t base = layers / cfg_.pipeline_parallel;
  const index_t rem = layers % cfg_.pipeline_parallel;
  const auto stage = static_cast<index_t>(rank_.stage);
  num_layers_ = base + (stage < rem ? 1 : 0);
  first_layer_ = stage * base + std::min(stage, rem);
}

bool Worker::has_lm_head() const {
  return rank_.stage == cfg_.pipeline_parallel - 1;
}

double Worker::weight_shard_bytes() const {
  return engine_->weight_bytes(num_layers_, has_embedding(), has_lm_head(),
                               cfg_.tensor_parallel);
}

double Worker::kv_bytes_per_token() const {
  return engine_->kv_bytes_per_token(num_layers_, cfg_.tensor_parallel);
}

index_t Worker::kv_block_budget(index_t block_size) const {
  std::ostringstream what;
  what << engine_->config().model.name << " rank (tp " << rank_.tp
       << ", stage " << rank_.stage << ", " << num_layers_ << " layers)";
  return sched::kv_blocks_that_fit(
      engine_->config().gpu.hbm_bytes(), weight_shard_bytes(),
      kv_bytes_per_token(), block_size,
      what.str() + " on " + engine_->config().gpu.name);
}

double Worker::step_compute_seconds(index_t seqs, double avg_context,
                                    index_t depth) const {
  return engine_->layer_range_seconds(
      num_layers_, seqs * (depth + 1),
      engine_->attention_layer_seconds(seqs, avg_context,
                                       cfg_.tensor_parallel),
      has_lm_head(), cfg_.tensor_parallel);
}

double Worker::prefill_compute_seconds(index_t mb_tokens,
                                       index_t prompt_tokens) const {
  return engine_->layer_range_seconds(
      num_layers_, mb_tokens,
      engine_->prefill_attention_layer_seconds(mb_tokens, prompt_tokens,
                                               cfg_.tensor_parallel),
      has_lm_head(), cfg_.tensor_parallel);
}

double Worker::overlapped_stage_seconds(index_t seqs, double avg_context,
                                        index_t depth,
                                        int comm_buckets) const {
  const index_t tokens = seqs * (depth + 1);
  const double serialized =
      step_compute_seconds(seqs, avg_context, depth) + tp_comm_seconds(tokens);
  if (comm_buckets <= 1 || cfg_.tensor_parallel == 1 || num_layers_ == 0) {
    return serialized;
  }
  const double attention = engine_->attention_layer_seconds(
      seqs, avg_context, cfg_.tensor_parallel);
  // Per-block pieces: compute of one transformer block, and its two ring
  // all-reduces. Splitting an all-reduce into `comm_buckets` chunks keeps
  // the chunks in flight back to back on the link, so the ring's latency
  // hops amortize across the pipeline and the block's total wire time
  // stays the unchunked cost — what chunking buys is a bounded *exposed
  // tail*: once the last block's compute retires, only its final chunk is
  // still draining.
  const double block_compute =
      engine_->block_linear_seconds(tokens, cfg_.tensor_parallel) + attention;
  const Interconnect link = Interconnect::of(engine_->config().gpu);
  const double bytes = static_cast<double>(tokens) *
                       static_cast<double>(engine_->config().model.hidden) *
                       2.0;
  const double block_comm =
      2.0 * link.allreduce_seconds(bytes, cfg_.tensor_parallel);
  const double tail =
      2.0 * link.allreduce_seconds(bytes / static_cast<double>(comm_buckets),
                                   cfg_.tensor_parallel);
  // Two-stage software pipeline over the block sequence: block j's chunked
  // all-reduces drain while block j+1 computes, so the slower of the two
  // paces the middle of the chain and only the last block's final chunks
  // are fully exposed. Clamp at the serialized schedule — overlap must
  // never price a step slower.
  const double layers = static_cast<double>(num_layers_);
  double t = block_compute +
             (layers - 1.0) * std::max(block_compute, block_comm) + tail;
  if (has_lm_head()) {
    t += engine_->lm_head_seconds(tokens, cfg_.tensor_parallel);
  }
  return std::min(serialized, t);
}

double Worker::tp_comm_seconds(index_t tokens) const {
  if (cfg_.tensor_parallel == 1) return 0.0;
  // Interconnect is a pure projection of the DeviceSpec (the single
  // source of truth), so rebuilding it here agrees with
  // ParallelEngine::link() by construction.
  const Interconnect link = Interconnect::of(engine_->config().gpu);
  const double bytes = static_cast<double>(tokens) *
                       static_cast<double>(engine_->config().model.hidden) *
                       2.0;
  // Two all-reduces per transformer block (attention out, MLP down).
  return 2.0 * static_cast<double>(num_layers_) *
         link.allreduce_seconds(bytes, cfg_.tensor_parallel);
}

}  // namespace marlin::serve::parallel
