#include "serve/parallel/parallel_engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace marlin::serve::parallel {

namespace {

/// Checks one step-price query — `batch >= 1`, `avg_context >= 0`,
/// `depth >= 0` — and returns the 64-token context bucket the step memo
/// keys it under. Throws a one-line `Error` on a malformed query.
index_t checked_context_bucket(index_t batch, double avg_context,
                               index_t depth) {
  MARLIN_CHECK(batch >= 1, "batch must be >= 1, got " << batch);
  MARLIN_CHECK(avg_context >= 0.0,
               "average context must be >= 0 tokens, got " << avg_context);
  MARLIN_CHECK(depth >= 0, "speculation depth must be >= 0, got " << depth);
  // 64-token buckets keep the memo small.
  return static_cast<index_t>(avg_context / 64.0);
}

/// The context a step in `bucket` is priced at: the bucket's centre.
double bucket_centre(index_t bucket) {
  return static_cast<double>(bucket) * 64.0 + 32.0;
}

/// Checks one prefill query: `batch >= 1`, `prompt_tokens >= 0`.
void check_prefill_query(index_t batch, index_t prompt_tokens) {
  MARLIN_CHECK(batch >= 1, "batch must be >= 1, got " << batch);
  MARLIN_CHECK(prompt_tokens >= 0,
               "prompt tokens must be >= 0, got " << prompt_tokens);
}

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

double ParallelEngine::send_seconds(index_t tokens) const {
  const int pp = cfg_.pipeline_parallel;
  if (pp == 1) return 0.0;
  const double activation_bytes =
      static_cast<double>(tokens) *
      static_cast<double>(engine_.config().model.hidden) * 2.0;
  return static_cast<double>(pp - 1) *
         link_.transfer_seconds(activation_bytes);
}

StepBreakdown ParallelEngine::step_breakdown(index_t batch,
                                             double bucket_context,
                                             index_t depth) const {
  const auto mb = plan_microbatches(cfg_, batch);
  // Each stage scores every candidate: compute, TP all-reduces and the
  // activation sends on the stage boundaries price (depth + 1)x the
  // tokens. `comm_buckets` prices decode steps only, so a verification
  // step keeps the serialized stage.
  const index_t tokens = mb.seqs * (depth + 1);
  const int buckets = depth == 0 ? cfg_.comm_buckets : 1;
  StepBreakdown b;
  b.microbatches = mb.count;

  // Per-microbatch stage time: max over every rank of compute plus its
  // tensor-parallel all-reduce share. Iterate in rank order with a strict
  // greater-than so the argmax is deterministic. With comm_buckets > 1
  // the schedule the step actually pays is the overlapped one, tracked as
  // a second max over the same rank order; one bucket is the serialized
  // schedule itself, so nothing is priced twice.
  double stage_max = 0.0;
  double stage_max_overlapped = 0.0;
  for (const Worker& w : workers_) {
    const double compute =
        w.step_compute_seconds(mb.seqs, bucket_context, depth);
    const double comm = w.tp_comm_seconds(tokens);
    if (compute + comm > stage_max) {
      stage_max = compute + comm;
      b.stage_compute_s = compute;
      b.tp_comm_s = comm;
    }
    if (buckets > 1) {
      stage_max_overlapped = std::max(
          stage_max_overlapped,
          w.overlapped_stage_seconds(mb.seqs, bucket_context, depth, buckets));
    }
  }
  if (buckets == 1) stage_max_overlapped = stage_max;

  const int pp = cfg_.pipeline_parallel;
  b.pp_send_s = send_seconds(tokens);
  const double slots = static_cast<double>(mb.count + pp - 1);
  b.bubble_fraction = static_cast<double>(pp - 1) / slots;
  b.overlap_saved_s = slots * (stage_max - stage_max_overlapped);
  b.total_s = slots * stage_max_overlapped + b.pp_send_s +
              engine_.config().step_overhead_s;
  return b;
}

StepBreakdown ParallelEngine::decode_breakdown(index_t batch,
                                               double avg_context) const {
  const index_t bucket = checked_context_bucket(batch, avg_context, 0);
  return step_breakdown(batch, bucket_centre(bucket), 0);
}

bool ParallelEngine::decode_split(index_t batch, double avg_context,
                                  double* compute_s, double* comm_s,
                                  double* bubble_fraction) const {
  // A one-rank grid has no interconnect or pipeline bubble to split off;
  // declining keeps single-device traces free of an all-zero counter pair
  // on every decode step.
  if (cfg_.trivial()) return false;
  const StepBreakdown b = decode_breakdown(batch, avg_context);
  *compute_s = b.stage_compute_s;
  *comm_s = b.tp_comm_s + b.pp_send_s;
  *bubble_fraction = b.bubble_fraction;
  return true;
}

double ParallelEngine::verify_step_seconds(index_t batch, double avg_context,
                                           index_t depth) const {
  const index_t bucket = checked_context_bucket(batch, avg_context, depth);
  const auto key = std::make_tuple(batch, bucket, depth);
  {
    const std::lock_guard lock(cache_mutex_);
    if (const auto it = step_cache_.find(key); it != step_cache_.end()) {
      return it->second;
    }
  }
  const double t = step_breakdown(batch, bucket_centre(bucket), depth).total_s;
  const std::lock_guard lock(cache_mutex_);
  step_cache_[key] = t;
  return t;
}

double ParallelEngine::prefill_seconds(index_t batch,
                                       index_t prompt_tokens) const {
  check_prefill_query(batch, prompt_tokens);
  const auto mb = plan_microbatches(cfg_, batch);
  const index_t mb_tokens = mb.seqs * std::max<index_t>(1, prompt_tokens);

  double stage_max = 0.0;
  for (const Worker& w : workers_) {
    const double t = w.prefill_compute_seconds(mb_tokens, prompt_tokens) +
                     w.tp_comm_seconds(mb_tokens);
    stage_max = std::max(stage_max, t);
  }
  const int pp = cfg_.pipeline_parallel;
  return static_cast<double>(mb.count + pp - 1) * stage_max +
         send_seconds(mb_tokens) + engine_.config().prefill_overhead_s;
}

index_t ParallelEngine::min_kv_block_budget(index_t block_size) const {
  index_t budget = 0;
  for (const Worker& w : workers_) {
    const index_t b = w.kv_block_budget(block_size);
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
