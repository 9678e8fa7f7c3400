#pragma once
// Serving simulation entry point (paper Figures 15/16) — a thin adapter
// over the request-level scheduler subsystem in serve/sched/ and the
// cluster event loop in serve/cluster/.
//
// `Simulation` turns a ServingConfig into a workload trace, the rank grid,
// the scheduler, the draft engine and priced cluster options, and runs
// them on the configured fleet; `simulate_cluster_detailed` is that run.
// The defaults (one replica, Poisson arrivals, FCFS, unlimited KV blocks,
// unchunked prefill) reproduce the pre-subsystem simulator bit-for-bit —
// the fig15/fig16 golden tables hold — while the extra knobs open the
// scheduler's policy, workload and KV-budget space to the benches.
// Callers that only need the single-engine view read its `.sched` (or
// `.sched.metrics`) slice.

#include <memory>
#include <vector>

#include "serve/cluster/event_loop.hpp"
#include "serve/engine.hpp"
#include "serve/parallel/parallel_config.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/sched/scheduler.hpp"
#include "serve/sched/workload.hpp"

namespace marlin::serve {

struct ServingConfig {
  double qps = 1.0;
  double duration_s = 120.0;  // arrival window; sim drains afterwards
  index_t input_tokens = 64;
  index_t output_tokens = 64;
  index_t max_batch = 128;
  std::uint64_t seed = 42;

  /// Arrival/length shape (fixed lengths for kPoisson/kBursty; log-normal
  /// around the configured tokens for kShareGpt).
  sched::WorkloadShape shape = sched::WorkloadShape::kPoisson;
  /// Admission policy; FCFS matches the pre-subsystem behaviour.
  sched::SchedPolicy policy = sched::SchedPolicy::kFcfs;
  /// KV-cache block budget; 0 = unlimited (the goldens configuration),
  /// negative = derive from the device HBM next to the resident weights
  /// (per-rank aware: under TP/PP the minimum rank budget binds).
  index_t kv_blocks = 0;
  index_t kv_block_size = 16;
  /// Per-sequence prefill chunk tokens; 0 = whole prompt per step.
  index_t prefill_chunk_tokens = 0;
  /// Hashed prefix cache over full prompt blocks (off by default, which
  /// keeps every legacy golden bit-identical). When enabled, admissions
  /// of requests with a shared-prefix tag reuse cached blocks instead of
  /// re-prefilling them.
  sched::PrefixCacheConfig prefix_cache;
  /// Shared-prefix workload mix (see WorkloadConfig): when
  /// `shared_prefix_tokens` > 0, a `shared_prefix_share` fraction of
  /// requests prepend one of `shared_prefix_groups` shared headers of
  /// that many tokens to their prompt, drawn on a side RNG stream.
  index_t shared_prefix_tokens = 0;
  index_t shared_prefix_groups = 1;
  double shared_prefix_share = 1.0;
  /// Parallel-sampling width stamped on every request (n>1 decodes n
  /// continuations of one prompt, sharing the prompt KV copy-on-write).
  index_t sampling_n = 1;
  /// Multi-GPU sharding. Every grid, the default TP=1 PP=1 included,
  /// prices steps through `parallel::ParallelEngine` (max over ranks plus
  /// interconnect communication); the default is the single device.
  parallel::ParallelConfig parallel{};

  /// Multi-tenant serving: tenant specs (WFQ weights, priority tiers,
  /// soft KV block quotas, traffic shares). Empty = everything belongs to
  /// the single default tenant 0 and nothing changes. The workload mixes
  /// tenants by `traffic_share` on a side RNG stream (base trace stays
  /// bit-identical); `policy = wfq` arbitrates between them.
  std::vector<sched::TenantSpec> tenants;

  /// Speculative decoding (depth 0 = off). When enabled, the simulation
  /// builds a draft engine from `draft_model` — same device, weight
  /// format and clocks as the target; TinyLlama-1.1B when unnamed — and
  /// every decode step becomes a propose-then-verify round. Under a
  /// non-trivial `parallel` config the draft stays replicated on a single
  /// device while the target verifies across the rank grid.
  sched::SpeculationConfig speculation;
  ModelConfig draft_model{};

  /// Streaming SLOs (TTFT shed-on-hopeless admission + TPOT violation
  /// accounting); disabled by default, which leaves every legacy path and
  /// golden untouched.
  sched::SloConfig slo;

  /// Cluster shape: replica count, placement policy, autoscaler. The
  /// default 1-replica round-robin cluster reproduces the single-engine
  /// goldens byte-for-byte (each replica carves its own `kv_blocks`
  /// budget; the step-model memo is shared).
  cluster::ClusterOptions cluster{};

  /// Observability recorder (borrowed, may be null — the default). When
  /// set, the run emits request-lifecycle spans, scheduler/cluster events
  /// and metrics into it; the scheduling decisions themselves are
  /// identical with or without a recorder attached.
  obs::ServeRecorder* recorder = nullptr;
};

/// One serving run, set up: a test may reshape `trace` or hand the
/// scheduler and options to a reference loop first. Not copyable: the
/// scheduler borrows the step models held here.
class Simulation {
 public:
  Simulation(const Engine& engine, const ServingConfig& cfg);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// The workload `run` serves, generated from the config until a caller
  /// replaces it (ascending arrival times).
  std::vector<sched::TraceRequest> trace;

  /// Prices every step through the rank grid (tp = pp = 1 included) and,
  /// under speculation, the drafts through the draft engine.
  [[nodiscard]] const sched::Scheduler& scheduler() const {
    return scheduler_;
  }
  /// `cfg.cluster` with the unset disaggregation link fields priced.
  [[nodiscard]] const cluster::ClusterOptions& options() const {
    return options_;
  }

  /// `cluster::EventLoop(scheduler(), options()).run(trace, recorder)`.
  [[nodiscard]] cluster::ClusterStats run() const;

 private:
  parallel::ParallelEngine model_;
  std::unique_ptr<const Engine> draft_;  // null without speculation
  sched::Scheduler scheduler_;
  cluster::ClusterOptions options_;
  obs::ServeRecorder* recorder_;
};

/// Full cluster statistics: the fleet-summed SchedStats plus per-replica
/// accounting. `Simulation(engine, cfg).run()`.
cluster::ClusterStats simulate_cluster_detailed(const Engine& engine,
                                                const ServingConfig& cfg);

}  // namespace marlin::serve
