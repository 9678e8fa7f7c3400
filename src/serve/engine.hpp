#pragma once
// vLLM-like inference engine cost model (paper §5.2).
//
// A single-device decode step for a batch of sequences prices:
//   * every transformer-block linear layer via the selected kernel model
//     (FP16 / MARLIN / Sparse-MARLIN);
//   * KV-cache attention reads (memory-bound paged attention);
//   * a fixed per-step engine overhead (scheduler / sampler / Python),
//     calibrated once against the paper's measured 2.93x at batch 1 on A10.
// Prefill prices the same linear layers at M = total new tokens plus the
// quadratic attention term. Both are one formula, `layer_range_seconds`:
// a span of transformer blocks at M tokens, each paying its linears and
// its attention, plus the LM head where the span owns it.
// `parallel::ParallelEngine`'s workers price their stage of a rank grid
// with it. `Engine` holds no step formula of its own: its `StepModel`
// methods forward to a one-rank grid it builds over itself, so a bare
// `Engine` is the tp = pp = 1 `ParallelEngine` by construction.

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/kernel_model.hpp"
#include "gpusim/clock.hpp"
#include "serve/model_config.hpp"
#include "util/sim_context.hpp"
#include "util/slot_table.hpp"

namespace marlin::serve {

namespace parallel {
class ParallelEngine;
}

enum class WeightFormat { kFp16, kMarlin, kSparseMarlin };

const char* to_string(WeightFormat f);

/// Interface the serving scheduler prices engine steps against.
/// `parallel::ParallelEngine` (max over ranks of compute plus interconnect
/// communication) is the one implementation in `src/`; a bare `Engine`
/// forwards to its own one-rank grid. Implementations must be
/// deterministic: the same (batch, context) query returns bit-identical
/// seconds on every call and thread count.
class StepModel {
 public:
  virtual ~StepModel() = default;

  /// Seconds to advance every sequence of `batch` by one token: the
  /// depth-0 verification step.
  [[nodiscard]] virtual double decode_step_seconds(index_t batch,
                                                   double avg_context) const;
  /// Seconds to prefill `batch` sequences of `prompt_tokens` tokens each.
  [[nodiscard]] virtual double prefill_seconds(index_t batch,
                                               index_t prompt_tokens)
      const = 0;
  /// Seconds for one speculative-decoding *verification* step: every
  /// sequence of `batch` scores `1 + depth` candidate tokens (its own
  /// next token plus `depth` draft proposals) against `avg_context` of
  /// KV in a single batched forward pass. The linear layers run at
  /// `batch * (depth + 1)` tokens while the paged KV cache is streamed
  /// once (the candidates share the sequence's blocks), which is exactly
  /// why verification is cheaper than `depth + 1` decode steps on a
  /// memory-bound decode. `depth == 0` is a decode step.
  [[nodiscard]] virtual double verify_step_seconds(index_t batch,
                                                   double avg_context,
                                                   index_t depth) const = 0;
  /// Pre-fills the step table for every batch in [1, max_batch] and the
  /// 64-token context buckets up to `max_context`, fanning the
  /// `decode_step_seconds` evaluations out on the context's shared pool.
  /// Purely a warm-up: cached values must equal on-demand computation, so
  /// simulation results are bit-identical whether or not (and on how many
  /// threads) this ran. A serial context skips the fan-out.
  /// Tested warm against cold by StepModelReference; outside the tests only
  /// perfbench calls (and overrides) it.
  virtual void warm_decode_cache(const SimContext& ctx, index_t max_batch,
                                 double max_context) const;

  /// Optional decode-step latency decomposition for the observability
  /// layer: when the model can attribute a decode step to compute vs
  /// interconnect communication plus a pipeline-bubble share (the
  /// multi-GPU `parallel::ParallelEngine`), it fills the three outputs
  /// and returns true. The default — a single device has no meaningful
  /// split — declines, and recording falls back to the undecomposed step
  /// time.
  [[nodiscard]] virtual bool decode_split(index_t /*batch*/,
                                          double /*avg_context*/,
                                          double* /*compute_s*/,
                                          double* /*comm_s*/,
                                          double* /*bubble_fraction*/) const {
    return false;
  }
};

struct EngineConfig {
  ModelConfig model;
  gpusim::DeviceSpec gpu;
  WeightFormat format = WeightFormat::kMarlin;
  index_t group_size = 128;
  gpusim::ClockModel clock{gpusim::ClockMode::kAutoThermal};
  /// Per-decode-step engine overhead outside the GPU kernels.
  double step_overhead_s = 1.8e-3;
  /// Fixed prefill-path overhead (tokenisation, scheduling, first-token
  /// detokenisation) — dominates TTFT and is why the paper's TTFT gains
  /// (1.5-1.9x) are much smaller than its TPOT gains.
  double prefill_overhead_s = 12e-3;
};

/// The single-device cost model: per-layer pricing for the rank grid,
/// plus a `StepModel` face for callers that price a bare device (the
/// speculative draft model, `generation_time`, external drivers), which
/// forwards to `ParallelEngine(*this, {})`.
class Engine : public StepModel {
 public:
  /// Throws a one-line `Error` when the model has no transformer blocks.
  explicit Engine(EngineConfig cfg);
  ~Engine() override;
  /// Not copyable or movable: the grid's workers refer to this Engine.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The one-rank grid's prefill price.
  [[nodiscard]] double prefill_seconds(index_t batch,
                                       index_t prompt_tokens) const override;
  /// The one-rank grid's (memoised) verification price.
  [[nodiscard]] double verify_step_seconds(index_t batch, double avg_context,
                                           index_t depth) const override;

  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  /// Weight bytes of `layers` transformer blocks at the format's width,
  /// plus the FP16 embedding table and LM head where held (MARLIN
  /// quantizes only the linears), all split across `tp` ranks. The one
  /// weight charge: rank shards and the single-device KV budget use it.
  [[nodiscard]] double weight_bytes(index_t layers, bool embedding,
                                    bool lm_head, int tp) const;
  /// FP16 KV-cache bytes one context token occupies in `layers` layers
  /// (K and V), its heads split across `tp` ranks. The one KV footprint:
  /// rank budgets and the single-device form below use it.
  [[nodiscard]] double kv_bytes_per_token(index_t layers, int tp) const;
  /// Every layer on one device. The serving scheduler derives its block
  /// budget from this.
  [[nodiscard]] double kv_bytes_per_token() const {
    return kv_bytes_per_token(cfg_.model.num_layers, 1);
  }
  /// Quantized weight bits per parameter of the configured format (16 for
  /// FP16, 4.125 for MARLIN incl. group scales, 3.125 for Sparse-MARLIN).
  [[nodiscard]] double weight_bits() const;

  /// The speculative draft engine for `model`: this engine's device,
  /// format and clocks with only the model swapped. Built on the first
  /// request for that model and shared by every later one, so repeated
  /// simulations price their drafts from warm tables. Thread-safe.
  [[nodiscard]] const Engine& draft_engine(const ModelConfig& model) const;

  // Per-layer pricing — the building blocks the worker model composes
  // into per-rank / per-stage times. All are deterministic and memoised
  // where a kernel-model estimate is involved, so one Engine can be
  // shared by concurrent sweep workers (duplicated computation of a
  // missing entry is benign). The linear and LM-head prices of every
  // `m < kTableM` (decode steps scoring fewer than 1,024 tokens, and short
  // prefills) live in tables over (tp, m) read without a lock. Larger
  // shapes, prefills of sparse m up to count x prompt tokens, fall back
  // to a mutex-guarded map: it holds only the m that occur, where a dense
  // row would grow to the largest one.
  static constexpr index_t kTableM = 1024;

  /// One transformer block's linear layers at M tokens, Megatron-sharded
  /// across `tp` ranks (QKV & gate/up column-split, O & down row-split).
  [[nodiscard]] double block_linear_seconds(index_t m, int tp) const;
  /// The FP16 LM head with the vocab dimension column-split across `tp`.
  [[nodiscard]] double lm_head_seconds(index_t m, int tp) const;
  /// One layer of decode paged-attention (KV streaming + launch) for
  /// `batch` sequences at `avg_context`, KV heads sharded across `tp`.
  [[nodiscard]] double attention_layer_seconds(index_t batch,
                                               double avg_context,
                                               int tp) const;
  /// One layer of quadratic prefill attention at `m` total new tokens
  /// against `prompt_tokens` of context, heads sharded across `tp`.
  [[nodiscard]] double prefill_attention_layer_seconds(
      index_t m, index_t prompt_tokens, int tp) const;
  /// Compute seconds of `layers` transformer blocks, each paying its
  /// linears at `m` tokens plus `attention_layer_s`, plus the LM head
  /// when `lm_head`, all sharded across `tp`. The one step formula: every
  /// rank prices its stage with it.
  [[nodiscard]] double layer_range_seconds(index_t layers, index_t m,
                                           double attention_layer_s,
                                           bool lm_head, int tp) const;

 private:
  /// Seconds by [tp - 1][m]; a row's segments are allocated as its `m`
  /// are priced (at most 8 KB per `tp` for m < kTableM).
  using LayerTable = util::GrowArray<util::Lazy<util::SlotRow>, 8>;
  using LayerMap = std::map<std::pair<index_t, int>, double>;
  template <class Fn>
  double memoised(LayerTable& table, LayerMap& tail, index_t m, int tp,
                  Fn&& price) const;

  EngineConfig cfg_;
  baselines::KernelModelPtr kernel_;
  mutable LayerTable block_table_;
  mutable LayerTable head_table_;
  /// Guards the map tails and the draft engines; held only around
  /// lookups/inserts, never across the kernel-model estimates, so the
  /// tails fill concurrently without lock nesting.
  mutable std::mutex cache_mutex_;
  mutable LayerMap block_cache_;
  mutable LayerMap head_cache_;
  /// One draft engine per requested draft model.
  mutable std::vector<std::unique_ptr<const Engine>> drafts_;
  /// `ParallelEngine(*this, {})`: the step model and step table behind
  /// this Engine's `StepModel` methods. Declared last, built last.
  std::unique_ptr<const parallel::ParallelEngine> grid_;
};

}  // namespace marlin::serve
