#pragma once
// Batched generation benchmark (paper Figure 14 and Table 2): total time to
// produce output tokens 2..64 — i.e. the pure decode phase after prefill —
// for a fixed batch of sequences with 64 input tokens each. Any StepModel
// prices the steps: a `parallel::ParallelEngine` for the multi-GPU rows of
// Table 2, or a bare `Engine`, which forwards to its own one-rank grid.

#include "serve/engine.hpp"

namespace marlin::serve {

struct GenerationResult {
  double decode_seconds = 0;   // tokens 2..output_tokens (paper's metric)
  double prefill_seconds = 0;  // token 1
  double output_tokens_per_s = 0;
};

GenerationResult generation_time(const StepModel& model, index_t batch,
                                 index_t input_tokens, index_t output_tokens);

}  // namespace marlin::serve
