#pragma once
// Multi-GPU parallelism configuration for the serving timing model.
//
// Tensor parallelism (TP) splits every linear layer Megatron-style across
// `tensor_parallel` ranks and pays two ring all-reduces per transformer
// block. Pipeline parallelism (PP) splits the layer stack into
// `pipeline_parallel` contiguous stages and pays one activation send/recv
// per stage boundary; a step is split into `microbatches` microbatches so
// stages overlap (fill/drain bubbles shrink as microbatches grow).
//
// The trivial config (TP=1, PP=1) is the single-device model: a bare
// `Engine` prices its steps through exactly this one-rank grid.

#include <string>

namespace marlin::serve::parallel {

struct ParallelConfig {
  int tensor_parallel = 1;
  int pipeline_parallel = 1;
  /// Microbatches per engine step under pipeline parallelism;
  /// 0 = one per pipeline stage (the classic fill/drain minimum).
  int microbatches = 0;
  /// Chunks each per-block tensor-parallel all-reduce is split into so
  /// its transfer overlaps the next block's compute (decode steps only).
  /// 1 = the serialized compute-then-communicate pricing, bit-identical
  /// to the pre-overlap model. More buckets hide more bandwidth time but
  /// pay the ring's latency term once per chunk; the stage time is never
  /// priced above the serialized schedule.
  int comm_buckets = 1;

  [[nodiscard]] int world_size() const {
    return tensor_parallel * pipeline_parallel;
  }
  [[nodiscard]] bool trivial() const {
    return tensor_parallel == 1 && pipeline_parallel == 1;
  }
  [[nodiscard]] int effective_microbatches() const {
    return microbatches > 0 ? microbatches : pipeline_parallel;
  }

  /// Throws on a malformed config (degrees < 1, negative microbatches,
  /// comm buckets < 1).
  void validate() const;
  /// Compact label, e.g. "tp2 pp2", "tp1 pp4 mb8" or "tp4 pp1 cb4".
  [[nodiscard]] std::string to_string() const;
};

}  // namespace marlin::serve::parallel
