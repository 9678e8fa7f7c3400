#include "serve/generation.hpp"

namespace marlin::serve {

GenerationResult generation_time(const StepModel& model, index_t batch,
                                 index_t input_tokens,
                                 index_t output_tokens) {
  GenerationResult r;
  r.prefill_seconds = model.prefill_seconds(batch, input_tokens);
  for (index_t t = 1; t < output_tokens; ++t) {
    const double ctx = static_cast<double>(input_tokens + t);
    r.decode_seconds += model.decode_step_seconds(batch, ctx);
  }
  const double total_out =
      static_cast<double>(batch) * static_cast<double>(output_tokens - 1);
  r.output_tokens_per_s =
      r.decode_seconds > 0 ? total_out / r.decode_seconds : 0.0;
  return r;
}

}  // namespace marlin::serve
