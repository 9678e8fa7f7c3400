#pragma once
// Transformer model catalog for the end-to-end experiments (paper §5.2):
// Llama-2 7B/13B/70B, Llama-1 33B/65B, Yi-34B, Falcon-180B. Shapes are the
// public architecture parameters; they determine every linear-layer matmul
// the serving engine prices.

#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace marlin::serve {

struct ModelConfig {
  std::string name;
  index_t hidden = 0;
  index_t intermediate = 0;  // MLP inner dim
  index_t num_layers = 0;
  index_t num_heads = 0;
  index_t num_kv_heads = 0;  // < num_heads => grouped-query attention
  index_t head_dim = 0;
  index_t vocab = 32000;
  bool gated_mlp = true;  // SwiGLU (gate+up+down); Falcon uses plain 4h MLP

  /// Total parameter count of the transformer blocks + embeddings.
  [[nodiscard]] double num_params() const;
  /// Parameter count of ONE transformer block's linear layers — the unit
  /// the pipeline-parallel worker model shards by layer range.
  [[nodiscard]] double params_per_block() const;
  /// Parameter count of the input-embedding table (the LM head is the
  /// same shape); both stay FP16 in every serving configuration.
  [[nodiscard]] double embedding_params() const {
    return static_cast<double>(hidden) * static_cast<double>(vocab);
  }
  /// FP16 weight bytes.
  [[nodiscard]] double fp16_bytes() const { return num_params() * 2.0; }

  bool operator==(const ModelConfig&) const = default;
};

/// One linear layer of a transformer block: K = input dim, N = output dim.
struct LayerShape {
  std::string name;
  index_t k = 0;
  index_t n = 0;
};

/// The linear layers of ONE transformer block (fused QKV, attention output,
/// fused gate+up / MLP up, MLP down).
std::vector<LayerShape> block_linear_layers(const ModelConfig& m);

ModelConfig llama2_7b();
ModelConfig llama2_13b();
ModelConfig llama2_70b();
ModelConfig llama1_33b();
ModelConfig llama1_65b();
ModelConfig yi_34b();
ModelConfig falcon_180b();
/// Small Llama-architecture model — the default speculative-decoding
/// draft for the Llama-2 family (shared 32k vocabulary).
ModelConfig tinyllama_1_1b();

ModelConfig model_by_name(const std::string& name);
std::vector<ModelConfig> all_models();

}  // namespace marlin::serve
