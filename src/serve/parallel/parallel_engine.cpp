#include "serve/parallel/parallel_engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace marlin::serve::parallel {

namespace {

/// Microbatch count and per-microbatch sequence count for a step over
/// `batch` sequences: never more microbatches than sequences, sizes are
/// the ceiling split (the pipeline is paced by its largest microbatch).
struct MicrobatchPlan {
  int count = 1;
  index_t seqs = 0;
};

MicrobatchPlan plan_microbatches(const ParallelConfig& cfg, index_t batch) {
  MicrobatchPlan p;
  p.count = static_cast<int>(
      std::min<index_t>(cfg.effective_microbatches(), batch));
  p.count = std::max(p.count, 1);
  p.seqs = (batch + p.count - 1) / p.count;
  return p;
}

}  // namespace

ParallelEngine::ParallelEngine(const Engine& engine, ParallelConfig cfg)
    : engine_(engine), cfg_(cfg), link_(Interconnect::of(engine.config().gpu)) {
  cfg_.validate();
  workers_.reserve(static_cast<std::size_t>(cfg_.world_size()));
  for (int stage = 0; stage < cfg_.pipeline_parallel; ++stage) {
    for (int tp = 0; tp < cfg_.tensor_parallel; ++tp) {
      workers_.emplace_back(engine_, cfg_, RankId{tp, stage});
    }
  }
}

StepBreakdown ParallelEngine::decode_breakdown_at(
    index_t batch, double bucket_context) const {
  const auto mb = plan_microbatches(cfg_, batch);
  StepBreakdown b;
  b.microbatches = mb.count;

  // Per-microbatch stage time: max over every rank of compute plus its
  // tensor-parallel all-reduce share. Iterate in rank order with a strict
  // greater-than so the argmax is deterministic. With comm_buckets > 1
  // the schedule the step actually pays is the overlapped one, tracked as
  // a second max over the same rank order; comm_buckets == 1 keeps both
  // maxima equal by construction.
  double stage_max = 0.0;
  double stage_max_overlapped = 0.0;
  for (const Worker& w : workers_) {
    const double compute = w.decode_compute_seconds(mb.seqs, bucket_context);
    const double comm = w.tp_comm_seconds(mb.seqs);
    if (compute + comm > stage_max) {
      stage_max = compute + comm;
      b.stage_compute_s = compute;
      b.tp_comm_s = comm;
    }
    stage_max_overlapped = std::max(
        stage_max_overlapped,
        w.overlapped_decode_stage_seconds(mb.seqs, bucket_context,
                                          cfg_.comm_buckets));
  }

  const int pp = cfg_.pipeline_parallel;
  const double activation_bytes =
      static_cast<double>(mb.seqs) *
      static_cast<double>(engine_.config().model.hidden) * 2.0;
  b.pp_send_s = static_cast<double>(pp - 1) *
                link_.transfer_seconds(activation_bytes);

  const double slots = static_cast<double>(mb.count + pp - 1);
  b.bubble_fraction = static_cast<double>(pp - 1) / slots;
  b.overlap_saved_s = slots * (stage_max - stage_max_overlapped);
  b.total_s = slots * stage_max_overlapped + b.pp_send_s +
              engine_.config().step_overhead_s;
  return b;
}

StepBreakdown ParallelEngine::decode_breakdown(index_t batch,
                                               double avg_context) const {
  MARLIN_CHECK(batch >= 1, "batch must be >= 1");
  if (cfg_.trivial()) {
    StepBreakdown b;
    b.total_s = engine_.decode_step_seconds(batch, avg_context);
    b.stage_compute_s = b.total_s - engine_.config().step_overhead_s;
    return b;
  }
  // Mirror the Engine's 64-token context bucketing so memo hits and fresh
  // computations see the same context value.
  const auto bucket = static_cast<index_t>(avg_context / 64.0);
  return decode_breakdown_at(batch, static_cast<double>(bucket) * 64.0 + 32.0);
}

bool ParallelEngine::decode_split(index_t batch, double avg_context,
                                  double* compute_s, double* comm_s,
                                  double* bubble_fraction) const {
  // Trivial configs delegate to the wrapped Engine, which has no split.
  if (cfg_.trivial()) return false;
  const StepBreakdown b = decode_breakdown(batch, avg_context);
  *compute_s = b.stage_compute_s;
  *comm_s = b.tp_comm_s + b.pp_send_s;
  *bubble_fraction = b.bubble_fraction;
  return true;
}

double ParallelEngine::decode_step_seconds(index_t batch,
                                           double avg_context) const {
  MARLIN_CHECK(batch >= 1, "batch must be >= 1");
  if (cfg_.trivial()) return engine_.decode_step_seconds(batch, avg_context);
  const auto bucket = static_cast<index_t>(avg_context / 64.0);
  const auto key = std::make_pair(batch, bucket);
  {
    const std::lock_guard lock(cache_mutex_);
    if (const auto it = decode_cache_.find(key); it != decode_cache_.end()) {
      return it->second;
    }
  }
  const double t =
      decode_breakdown_at(batch, static_cast<double>(bucket) * 64.0 + 32.0)
          .total_s;
  const std::lock_guard lock(cache_mutex_);
  decode_cache_[key] = t;
  return t;
}

double ParallelEngine::verify_step_seconds(index_t batch, double avg_context,
                                           index_t depth) const {
  MARLIN_CHECK(batch >= 1, "batch must be >= 1");
  MARLIN_CHECK(depth >= 0, "speculation depth must be >= 0");
  if (cfg_.trivial()) {
    return engine_.verify_step_seconds(batch, avg_context, depth);
  }
  if (depth == 0) return decode_step_seconds(batch, avg_context);
  const auto bucket = static_cast<index_t>(avg_context / 64.0);
  const auto key = std::make_tuple(batch, bucket, depth);
  {
    const std::lock_guard lock(cache_mutex_);
    if (const auto it = verify_cache_.find(key); it != verify_cache_.end()) {
      return it->second;
    }
  }
  const double ctx = static_cast<double>(bucket) * 64.0 + 32.0;
  const auto mb = plan_microbatches(cfg_, batch);
  const index_t mb_tokens = mb.seqs * (depth + 1);

  // Same composition as a decode step, with each stage verifying the
  // widened candidate batch: compute and TP all-reduces price
  // (depth + 1)x the tokens, activations on the stage boundaries carry
  // every candidate.
  double stage_max = 0.0;
  for (const Worker& w : workers_) {
    const double t = w.verify_compute_seconds(mb.seqs, ctx, depth) +
                     w.tp_comm_seconds(mb_tokens);
    stage_max = std::max(stage_max, t);
  }
  const int pp = cfg_.pipeline_parallel;
  const double activation_bytes =
      static_cast<double>(mb_tokens) *
      static_cast<double>(engine_.config().model.hidden) * 2.0;
  const double send = pp > 1 ? static_cast<double>(pp - 1) *
                                   link_.transfer_seconds(activation_bytes)
                             : 0.0;
  const double t = static_cast<double>(mb.count + pp - 1) * stage_max + send +
                   engine_.config().step_overhead_s;
  const std::lock_guard lock(cache_mutex_);
  verify_cache_[key] = t;
  return t;
}

double ParallelEngine::prefill_seconds(index_t batch,
                                       index_t prompt_tokens) const {
  if (cfg_.trivial()) return engine_.prefill_seconds(batch, prompt_tokens);
  MARLIN_CHECK(batch >= 1, "batch must be >= 1");
  const auto mb = plan_microbatches(cfg_, batch);
  const index_t mb_tokens = mb.seqs * std::max<index_t>(1, prompt_tokens);

  double stage_max = 0.0;
  for (const Worker& w : workers_) {
    const double t = w.prefill_compute_seconds(mb_tokens, prompt_tokens) +
                     w.tp_comm_seconds(mb_tokens);
    stage_max = std::max(stage_max, t);
  }
  const int pp = cfg_.pipeline_parallel;
  const double activation_bytes =
      static_cast<double>(mb_tokens) *
      static_cast<double>(engine_.config().model.hidden) * 2.0;
  const double send = pp > 1 ? static_cast<double>(pp - 1) *
                                   link_.transfer_seconds(activation_bytes)
                             : 0.0;
  return static_cast<double>(mb.count + pp - 1) * stage_max + send +
         engine_.config().prefill_overhead_s;
}

void ParallelEngine::warm_decode_cache(const SimContext& ctx,
                                       index_t max_batch,
                                       double max_context) const {
  if (cfg_.trivial()) {
    engine_.warm_decode_cache(ctx, max_batch, max_context);
    return;
  }
  if (ctx.serial()) return;
  MARLIN_CHECK(max_batch >= 1, "batch must be >= 1");
  // One task per batch size fills the per-rank step model (and, through
  // it, the Engine's per-block memo) concurrently; cached values equal
  // on-demand computation bit-for-bit, so warming never changes results.
  const auto buckets = static_cast<index_t>(max_context / 64.0) + 1;
  ctx.parallel_for(1, max_batch + 1, [&](std::int64_t batch) {
    for (index_t b = 0; b < buckets; ++b) {
      (void)decode_step_seconds(batch, static_cast<double>(b) * 64.0 + 1.0);
    }
  });
}

index_t ParallelEngine::min_kv_block_budget(index_t block_size,
                                            double activation_reserve) const {
  index_t budget = 0;
  for (const Worker& w : workers_) {
    const index_t b = w.kv_block_budget(block_size, activation_reserve);
    budget = budget == 0 ? b : std::min(budget, b);
  }
  return budget;
}

double ParallelEngine::max_weight_shard_bytes() const {
  double bytes = 0.0;
  for (const Worker& w : workers_) {
    bytes = std::max(bytes, w.weight_shard_bytes());
  }
  return bytes;
}

}  // namespace marlin::serve::parallel
