#pragma once
// Tensor/pipeline-parallel step model over the Engine's per-layer cost
// model.
//
// A step is priced as the pipeline schedule of `microbatches` microbatches
// over `pipeline_parallel` stages, each stage's per-microbatch time being
// the max over its tensor-parallel ranks of (layer compute + two ring
// all-reduces per block), plus the activation send/recv the last
// microbatch pays on every stage boundary:
//
//   T_stage = max over ranks of (compute + tp all-reduce)   [per microbatch]
//   step    = (microbatches + stages - 1) * T_stage_max
//             + (stages - 1) * send(activation bytes)
//             + engine step overhead (once, global)
//
// The fill/drain bubble fraction is (stages-1)/(microbatches+stages-1).
//
// A speculative verification step is the same composition with every
// sequence scoring `depth + 1` candidate tokens (compute, all-reduces and
// sends at the widened token count); a decode step is depth 0, and both
// share one memo.
//
// With `ParallelConfig::comm_buckets > 1` a decode stage's per-block
// all-reduces are split into chunks that overlap the next block's compute
// (see Worker::overlapped_stage_seconds); the stage time becomes the max
// over ranks of that overlapped schedule, never above the serialized
// one, and the difference is surfaced per step as
// `StepBreakdown::overlap_saved_s`. The default (1 bucket) reproduces the
// serialized pricing bit-for-bit. Verification steps keep the serialized
// stage.
//
// Every grid, the one-rank TP=1 PP=1 grid included, prices through its
// workers' `Engine::layer_range_seconds`, the one step formula. This is
// the one step model and the one step memo: a bare `Engine` builds a
// one-rank grid over itself and forwards its `StepModel` methods to it.
// The KV budget charges weights through `Engine::weight_bytes`, as
// `sched::derive_kv_block_budget` does.
//
// Deterministic and memoised; safe to share across concurrent sweep
// workers.

#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "serve/engine.hpp"
#include "serve/parallel/interconnect.hpp"
#include "serve/parallel/worker.hpp"

namespace marlin::serve::parallel {

/// Where one decode step's latency goes, for benches and tests.
struct StepBreakdown {
  double total_s = 0;
  /// Slowest stage's per-microbatch compute (max over ranks).
  double stage_compute_s = 0;
  /// That stage's tensor-parallel all-reduce share per microbatch.
  double tp_comm_s = 0;
  /// Activation send/recv the last microbatch pays across all boundaries.
  double pp_send_s = 0;
  int microbatches = 1;
  /// Pipeline fill/drain bubble fraction, (pp-1)/(mb+pp-1).
  double bubble_fraction = 0;
  /// Seconds the bucketed all-reduce/compute overlap removed from the
  /// serialized schedule (0 when `comm_buckets` is 1, the default).
  double overlap_saved_s = 0;
};

class ParallelEngine final : public StepModel {
 public:
  ParallelEngine(const Engine& engine, ParallelConfig cfg);

  [[nodiscard]] double prefill_seconds(index_t batch,
                                       index_t prompt_tokens) const override;
  /// Speculative verification across the rank grid: the whole draft batch
  /// is verified in one pipelined step — per-microbatch stage time is the
  /// max over ranks of `Worker::step_compute_seconds` plus the TP
  /// all-reduce at the widened `(depth + 1)x` token count, with the usual
  /// pipeline fill/drain and activation sends. Memoised.
  [[nodiscard]] double verify_step_seconds(index_t batch, double avg_context,
                                           index_t depth) const override;

  /// Latency decomposition of one decode step (not memoised; the total
  /// equals decode_step_seconds bit-for-bit).
  [[nodiscard]] StepBreakdown decode_breakdown(index_t batch,
                                               double avg_context) const;

  /// Observability split over `decode_breakdown`: per-microbatch stage
  /// compute, communication (TP all-reduce share plus activation sends)
  /// and the pipeline bubble fraction. A one-rank grid declines.
  [[nodiscard]] bool decode_split(index_t batch, double avg_context,
                                  double* compute_s, double* comm_s,
                                  double* bubble_fraction) const override;

  [[nodiscard]] const ParallelConfig& config() const { return cfg_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  /// All world_size() workers, stage-major ((tp 0..n, stage 0), ...).
  [[nodiscard]] const std::vector<Worker>& workers() const { return workers_; }
  [[nodiscard]] const Interconnect& link() const { return link_; }

  /// The binding per-rank KV block budget: block allocation is mirrored
  /// across ranks, so the scheduler budget is the minimum over workers.
  [[nodiscard]] index_t min_kv_block_budget(index_t block_size) const;
  /// Largest weight shard any rank holds.
  [[nodiscard]] double max_weight_shard_bytes() const;

 private:
  /// Decomposition of one step whose sequences each score `depth + 1`
  /// tokens at the bucket-centred context (depth 0 is a decode step).
  [[nodiscard]] StepBreakdown step_breakdown(index_t batch,
                                             double bucket_context,
                                             index_t depth) const;
  /// Activation send/recv of `tokens` across every stage boundary.
  [[nodiscard]] double send_seconds(index_t tokens) const;

  const Engine& engine_;
  ParallelConfig cfg_;
  std::vector<Worker> workers_;
  Interconnect link_;
  mutable std::mutex cache_mutex_;
  /// Step seconds keyed (batch, 64-token context bucket, depth).
  mutable std::map<std::tuple<index_t, index_t, index_t>, double> step_cache_;
};

}  // namespace marlin::serve::parallel
