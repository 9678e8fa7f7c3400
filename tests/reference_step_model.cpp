#include "reference_step_model.hpp"

#include <algorithm>

namespace marlin::serve::reference {

namespace {

using parallel::ParallelEngine;
using parallel::StepBreakdown;
using parallel::Worker;

/// Centre of the 64-token context bucket `avg_context` falls in.
double bucket_context(double avg_context) {
  const auto bucket = static_cast<index_t>(avg_context / 64.0);
  return static_cast<double>(bucket) * 64.0 + 32.0;
}

struct MicrobatchPlan {
  int count = 1;
  index_t seqs = 0;
};

MicrobatchPlan plan_microbatches(const parallel::ParallelConfig& cfg,
                                 index_t batch) {
  MicrobatchPlan p;
  p.count = static_cast<int>(
      std::min<index_t>(cfg.effective_microbatches(), batch));
  p.count = std::max(p.count, 1);
  p.seqs = (batch + p.count - 1) / p.count;
  return p;
}

double activation_bytes(const ParallelEngine& pe, index_t tokens) {
  return static_cast<double>(tokens) *
         static_cast<double>(pe.engine().config().model.hidden) * 2.0;
}

}  // namespace

double worker_decode_compute_seconds(const ParallelEngine& pe, const Worker& w,
                                     index_t mb_tokens, double avg_context) {
  const Engine& engine = pe.engine();
  const int tp = pe.config().tensor_parallel;
  const double layers = static_cast<double>(w.num_layers());
  double t = layers * engine.block_linear_seconds(mb_tokens, tp) +
             layers * engine.attention_layer_seconds(mb_tokens, avg_context,
                                                     tp);
  if (w.has_lm_head()) t += engine.lm_head_seconds(mb_tokens, tp);
  return t;
}

double worker_verify_compute_seconds(const ParallelEngine& pe, const Worker& w,
                                     index_t seqs, double avg_context,
                                     index_t depth) {
  const Engine& engine = pe.engine();
  const int tp = pe.config().tensor_parallel;
  const index_t m = seqs * (depth + 1);
  const double layers = static_cast<double>(w.num_layers());
  double t = layers * engine.block_linear_seconds(m, tp) +
             layers * engine.attention_layer_seconds(seqs, avg_context, tp);
  if (w.has_lm_head()) t += engine.lm_head_seconds(m, tp);
  return t;
}

double worker_prefill_compute_seconds(const ParallelEngine& pe,
                                      const Worker& w, index_t mb_tokens,
                                      index_t prompt_tokens) {
  const Engine& engine = pe.engine();
  const int tp = pe.config().tensor_parallel;
  const double layers = static_cast<double>(w.num_layers());
  double t = layers * engine.block_linear_seconds(mb_tokens, tp) +
             layers * engine.prefill_attention_layer_seconds(
                          mb_tokens, prompt_tokens, tp);
  if (w.has_lm_head()) t += engine.lm_head_seconds(mb_tokens, tp);
  return t;
}

double worker_tp_comm_seconds(const ParallelEngine& pe, const Worker& w,
                              index_t tokens) {
  const int tp = pe.config().tensor_parallel;
  if (tp == 1) return 0.0;
  return 2.0 * static_cast<double>(w.num_layers()) *
         pe.link().allreduce_seconds(activation_bytes(pe, tokens), tp);
}

double worker_overlapped_decode_stage_seconds(const ParallelEngine& pe,
                                              const Worker& w,
                                              index_t mb_tokens,
                                              double avg_context,
                                              int comm_buckets) {
  const Engine& engine = pe.engine();
  const int tp = pe.config().tensor_parallel;
  const double serialized =
      worker_decode_compute_seconds(pe, w, mb_tokens, avg_context) +
      worker_tp_comm_seconds(pe, w, mb_tokens);
  if (comm_buckets <= 1 || tp == 1 || w.num_layers() == 0) return serialized;
  const double block_compute =
      engine.block_linear_seconds(mb_tokens, tp) +
      engine.attention_layer_seconds(mb_tokens, avg_context, tp);
  const double bytes = activation_bytes(pe, mb_tokens);
  const double block_comm = 2.0 * pe.link().allreduce_seconds(bytes, tp);
  const double tail =
      2.0 * pe.link().allreduce_seconds(
                bytes / static_cast<double>(comm_buckets), tp);
  const double layers = static_cast<double>(w.num_layers());
  double t = block_compute +
             (layers - 1.0) * std::max(block_compute, block_comm) + tail;
  if (w.has_lm_head()) t += engine.lm_head_seconds(mb_tokens, tp);
  return std::min(serialized, t);
}

StepBreakdown parallel_decode_breakdown(const ParallelEngine& pe,
                                        index_t batch, double avg_context) {
  const Engine& engine = pe.engine();
  StepBreakdown b;
  const double ctx = bucket_context(avg_context);
  const auto mb = plan_microbatches(pe.config(), batch);
  b.microbatches = mb.count;
  double stage_max = 0.0;
  double stage_max_overlapped = 0.0;
  for (const Worker& w : pe.workers()) {
    const double compute = worker_decode_compute_seconds(pe, w, mb.seqs, ctx);
    const double comm = worker_tp_comm_seconds(pe, w, mb.seqs);
    if (compute + comm > stage_max) {
      stage_max = compute + comm;
      b.stage_compute_s = compute;
      b.tp_comm_s = comm;
    }
    stage_max_overlapped = std::max(
        stage_max_overlapped,
        worker_overlapped_decode_stage_seconds(pe, w, mb.seqs, ctx,
                                               pe.config().comm_buckets));
  }
  const int pp = pe.config().pipeline_parallel;
  b.pp_send_s = static_cast<double>(pp - 1) *
                pe.link().transfer_seconds(activation_bytes(pe, mb.seqs));
  const double slots = static_cast<double>(mb.count + pp - 1);
  b.bubble_fraction = static_cast<double>(pp - 1) / slots;
  b.overlap_saved_s = slots * (stage_max - stage_max_overlapped);
  b.total_s = slots * stage_max_overlapped + b.pp_send_s +
              engine.config().step_overhead_s;
  return b;
}

double parallel_decode_step_seconds(const ParallelEngine& pe, index_t batch,
                                    double avg_context) {
  return parallel_decode_breakdown(pe, batch, avg_context).total_s;
}

double parallel_verify_step_seconds(const ParallelEngine& pe, index_t batch,
                                    double avg_context, index_t depth) {
  const Engine& engine = pe.engine();
  if (depth == 0) return parallel_decode_step_seconds(pe, batch, avg_context);
  const double ctx = bucket_context(avg_context);
  const auto mb = plan_microbatches(pe.config(), batch);
  const index_t mb_tokens = mb.seqs * (depth + 1);
  double stage_max = 0.0;
  for (const Worker& w : pe.workers()) {
    const double t =
        worker_verify_compute_seconds(pe, w, mb.seqs, ctx, depth) +
        worker_tp_comm_seconds(pe, w, mb_tokens);
    stage_max = std::max(stage_max, t);
  }
  const int pp = pe.config().pipeline_parallel;
  const double send =
      pp > 1 ? static_cast<double>(pp - 1) *
                   pe.link().transfer_seconds(activation_bytes(pe, mb_tokens))
             : 0.0;
  return static_cast<double>(mb.count + pp - 1) * stage_max + send +
         engine.config().step_overhead_s;
}

double parallel_prefill_seconds(const ParallelEngine& pe, index_t batch,
                                index_t prompt_tokens) {
  const Engine& engine = pe.engine();
  const auto mb = plan_microbatches(pe.config(), batch);
  const index_t mb_tokens = mb.seqs * std::max<index_t>(1, prompt_tokens);
  double stage_max = 0.0;
  for (const Worker& w : pe.workers()) {
    const double t =
        worker_prefill_compute_seconds(pe, w, mb_tokens, prompt_tokens) +
        worker_tp_comm_seconds(pe, w, mb_tokens);
    stage_max = std::max(stage_max, t);
  }
  const int pp = pe.config().pipeline_parallel;
  const double send =
      pp > 1 ? static_cast<double>(pp - 1) *
                   pe.link().transfer_seconds(activation_bytes(pe, mb_tokens))
             : 0.0;
  return static_cast<double>(mb.count + pp - 1) * stage_max + send +
         engine.config().prefill_overhead_s;
}

}  // namespace marlin::serve::reference
