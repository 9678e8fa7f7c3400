#pragma once
// Test-only reference for the serving step cost model: the decode,
// speculative-verification and prefill pricing of `parallel::Worker` and
// `parallel::ParallelEngine`, as they stood when each model wrote decode
// and verification as two separate formulas with two memos. Kept
// deliberately simple — no memo, one formula per query — so the step
// models can be tested against it for bit-equal seconds and
// `StepBreakdown` fields. The single-device `Engine` is checked against
// the one-rank (tp 1, pp 1) grid of these formulas.
//
// Written only against the public API: the Engine's per-layer prices
// (`block_linear_seconds`, `lm_head_seconds`, `attention_layer_seconds`,
// `prefill_attention_layer_seconds`), the ParallelEngine's `workers()`
// and `link()`, and `Interconnect`.

#include "serve/engine.hpp"
#include "serve/parallel/parallel_engine.hpp"

namespace marlin::serve::reference {

/// One rank's decode compute for `mb_tokens` sequences at `avg_context`.
double worker_decode_compute_seconds(const parallel::ParallelEngine& pe,
                                     const parallel::Worker& w,
                                     index_t mb_tokens, double avg_context);

/// One rank's verification compute: linears and LM head at
/// `seqs * (depth + 1)` tokens, attention over `seqs` sequences.
double worker_verify_compute_seconds(const parallel::ParallelEngine& pe,
                                     const parallel::Worker& w, index_t seqs,
                                     double avg_context, index_t depth);

/// One rank's prefill compute for `mb_tokens` new tokens.
double worker_prefill_compute_seconds(const parallel::ParallelEngine& pe,
                                      const parallel::Worker& w,
                                      index_t mb_tokens,
                                      index_t prompt_tokens);

/// One rank's tensor-parallel all-reduce seconds for `tokens`.
double worker_tp_comm_seconds(const parallel::ParallelEngine& pe,
                              const parallel::Worker& w, index_t tokens);

/// One rank's decode stage with its all-reduces split into `comm_buckets`
/// chunks overlapping the next block's compute.
double worker_overlapped_decode_stage_seconds(
    const parallel::ParallelEngine& pe, const parallel::Worker& w,
    index_t mb_tokens, double avg_context, int comm_buckets);

/// Every field of a ParallelEngine decode step's latency decomposition.
parallel::StepBreakdown parallel_decode_breakdown(
    const parallel::ParallelEngine& pe, index_t batch, double avg_context);

/// ParallelEngine decode step seconds (the breakdown's total).
double parallel_decode_step_seconds(const parallel::ParallelEngine& pe,
                                    index_t batch, double avg_context);

/// ParallelEngine verification step: serialized stage compute plus
/// all-reduce at the widened token count, whatever `comm_buckets` says.
double parallel_verify_step_seconds(const parallel::ParallelEngine& pe,
                                    index_t batch, double avg_context,
                                    index_t depth);

/// ParallelEngine prefill step.
double parallel_prefill_seconds(const parallel::ParallelEngine& pe,
                                index_t batch, index_t prompt_tokens);

}  // namespace marlin::serve::reference
