#include "serve/engine.hpp"

#include <algorithm>

#include "serve/parallel/parallel_engine.hpp"
#include "util/error.hpp"

namespace marlin::serve {

const char* to_string(WeightFormat f) {
  switch (f) {
    case WeightFormat::kFp16:
      return "vLLM FP16";
    case WeightFormat::kMarlin:
      return "vLLM MARLIN";
    case WeightFormat::kSparseMarlin:
      return "vLLM Sparse-MARLIN";
  }
  return "?";
}

double StepModel::decode_step_seconds(index_t batch,
                                      double avg_context) const {
  return verify_step_seconds(batch, avg_context, 0);
}

void StepModel::warm_decode_cache(const SimContext& ctx, index_t max_batch,
                                  double max_context) const {
  if (ctx.serial()) return;
  MARLIN_CHECK(max_batch >= 1, "batch must be >= 1");
  // One task per batch size fills the model's tables — the expensive
  // kernel-model part — concurrently; every 64-token context bucket is
  // then priced from the already-cached linear time.
  const auto buckets = static_cast<index_t>(max_context / 64.0) + 1;
  ctx.parallel_for(1, max_batch + 1, [&](std::int64_t batch) {
    for (index_t b = 0; b < buckets; ++b) {
      (void)decode_step_seconds(batch, static_cast<double>(b) * 64.0 + 1.0);
    }
  });
}

namespace {

baselines::KernelModelPtr make_kernel(WeightFormat f) {
  switch (f) {
    case WeightFormat::kFp16:
      return baselines::make_kernel_model("fp16");
    case WeightFormat::kMarlin:
      return baselines::make_kernel_model("marlin");
    case WeightFormat::kSparseMarlin:
      return baselines::make_kernel_model("sparse-marlin");
  }
  return nullptr;
}

/// Megatron sharding: the first linear of each pair splits N, the second
/// splits K; both keep per-rank work at 1/tp with two all-reduces per block.
core::MatmulProblem shard(const LayerShape& l, index_t m, int tp,
                          index_t group_size, bool split_n) {
  core::MatmulProblem p;
  p.m = m;
  p.k = split_n ? l.k : std::max<index_t>(64, l.k / tp);
  p.n = split_n ? std::max<index_t>(64, l.n / tp) : l.n;
  p.group_size = group_size;
  return p;
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(std::move(cfg)), kernel_(make_kernel(cfg_.format)) {
  MARLIN_CHECK(cfg_.model.num_layers >= 1,
               "model '" << cfg_.model.name << "' has "
                         << cfg_.model.num_layers
                         << " transformer layers; need at least 1");
  grid_ = std::make_unique<const parallel::ParallelEngine>(
      *this, parallel::ParallelConfig{});
}

Engine::~Engine() = default;

template <class Fn>
double Engine::memoised(LayerTable& table, LayerMap& tail, index_t m, int tp,
                        Fn&& price) const {
  MARLIN_CHECK(tp >= 1, "tensor-parallel degree must be >= 1");
  if (m >= 0 && m < kTableM) {
    return table[static_cast<std::size_t>(tp - 1)]
        .get()[static_cast<std::size_t>(m)]
        .get(price);
  }
  const auto key = std::make_pair(m, tp);
  {
    const std::lock_guard lock(cache_mutex_);
    if (const auto it = tail.find(key); it != tail.end()) return it->second;
  }
  const double t = price();
  const std::lock_guard lock(cache_mutex_);
  tail[key] = t;
  return t;
}

double Engine::block_linear_seconds(index_t m, int tp) const {
  return memoised(block_table_, block_cache_, m, tp, [&] {
    double per_block = 0.0;
    const auto layers = block_linear_layers(cfg_.model);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const bool split_n = layers[i].name == "qkv_proj" ||
                           layers[i].name == "gate_up_proj" ||
                           layers[i].name == "up_proj";
      const core::MatmulProblem p =
          shard(layers[i], m, tp, cfg_.group_size, split_n);
      per_block += kernel_->estimate(p, cfg_.gpu, cfg_.clock).seconds;
    }
    return per_block;
  });
}

double Engine::lm_head_seconds(index_t m, int tp) const {
  return memoised(head_table_, head_cache_, m, tp, [&] {
    // The LM head stays FP16 in all configurations (vLLM does not quantize
    // it); under tensor parallelism its vocab dimension is column-split.
    core::MatmulProblem head;
    head.m = m;
    head.k = cfg_.model.hidden;
    head.n = std::max<index_t>(64, cfg_.model.vocab / tp);
    head.group_size = cfg_.group_size;
    return baselines::make_kernel_model("fp16")
        ->estimate(head, cfg_.gpu, cfg_.clock)
        .seconds;
  });
}

const Engine& Engine::draft_engine(const ModelConfig& model) const {
  const std::lock_guard lock(cache_mutex_);
  for (const auto& d : drafts_) {
    if (d->config().model == model) return *d;
  }
  EngineConfig dcfg = cfg_;
  dcfg.model = model;
  return *drafts_.emplace_back(std::make_unique<const Engine>(dcfg));
}

double Engine::kv_bytes_per_token(index_t layers, int tp) const {
  // 2 (K and V) * layers * kv_heads * head_dim * 2 bytes / tp.
  return 2.0 * static_cast<double>(layers) *
         static_cast<double>(cfg_.model.num_kv_heads) *
         static_cast<double>(cfg_.model.head_dim) * 2.0 /
         static_cast<double>(tp);
}

double Engine::attention_layer_seconds(index_t batch, double avg_context,
                                       int tp) const {
  MARLIN_CHECK(tp >= 1, "tensor-parallel degree must be >= 1");
  // Attention kernel streaming efficiency (paged KV gather).
  constexpr double kAttentionMemEfficiency = 0.70;
  // One layer's share of the paged-attention KV stream: K and V heads are
  // sharded across the tensor-parallel group, plus the per-layer launch.
  const double kv_bytes = 2.0 * static_cast<double>(cfg_.model.num_kv_heads) *
                          static_cast<double>(cfg_.model.head_dim) * 2.0 / tp *
                          avg_context * static_cast<double>(batch);
  return kv_bytes /
             (cfg_.gpu.gmem_bytes_per_s() * kAttentionMemEfficiency) +
         cfg_.gpu.kernel_launch_s;
}

double Engine::prefill_attention_layer_seconds(index_t m,
                                               index_t prompt_tokens,
                                               int tp) const {
  MARLIN_CHECK(tp >= 1, "tensor-parallel degree must be >= 1");
  // ~4 * tokens * ctx * q_heads * head_dim FLOPs per layer (scores +
  // values), heads sharded across tp, at moderate tensor-core efficiency.
  const double attn_flops =
      4.0 * static_cast<double>(m) * static_cast<double>(prompt_tokens) *
      static_cast<double>(cfg_.model.num_heads) *
      static_cast<double>(cfg_.model.head_dim) / tp;
  const double clock = cfg_.clock.effective_clock_ghz(cfg_.gpu, 0.0);
  return attn_flops / (cfg_.gpu.tc_flops(clock) * 0.5);
}

double Engine::layer_range_seconds(index_t layers, index_t m,
                                   double attention_layer_s, bool lm_head,
                                   int tp) const {
  const double n = static_cast<double>(layers);
  double t = n * block_linear_seconds(m, tp) + n * attention_layer_s;
  if (lm_head) t += lm_head_seconds(m, tp);
  return t;
}

double Engine::verify_step_seconds(index_t batch, double avg_context,
                                   index_t depth) const {
  return grid_->verify_step_seconds(batch, avg_context, depth);
}

double Engine::prefill_seconds(index_t batch, index_t prompt_tokens) const {
  return grid_->prefill_seconds(batch, prompt_tokens);
}

double Engine::weight_bits() const {
  return cfg_.format == WeightFormat::kFp16     ? 16.0
         : cfg_.format == WeightFormat::kMarlin ? 4.125
                                                : 3.125;
}

double Engine::weight_bytes(index_t layers, bool embedding, bool lm_head,
                            int tp) const {
  MARLIN_CHECK(tp >= 1, "tensor-parallel degree must be >= 1");
  const auto& model = cfg_.model;
  const double ranks = static_cast<double>(tp);
  double bytes = model.params_per_block() * static_cast<double>(layers) *
                 weight_bits() / 8.0 / ranks;
  // Embedding and LM head stay FP16, vocab-split across the TP group.
  if (embedding) bytes += model.embedding_params() * 2.0 / ranks;
  if (lm_head) bytes += model.embedding_params() * 2.0 / ranks;
  return bytes;
}

}  // namespace marlin::serve
