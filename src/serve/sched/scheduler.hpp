#pragma once
// Continuous-batching scheduler policy over the engine cost model.
//
// The Scheduler is a *passive* per-replica policy object: it owns no
// clock and no loop. The cluster-level `cluster::EventLoop` (which owns
// the discrete-event clock for a whole fleet of replicas) *ticks* it —
// one `admit` pass plus one `step` per tick — against a `ReplicaState`
// holding that replica's mutable serving state. Each tick:
//
//   1. (EventLoop) arrivals up to the replica's clock join its queue;
//   2. `admit`: queued requests are admitted in policy order while the
//      batch cap and the KV watermark allow, allocating their prefill
//      blocks; hopeless requests are shed when an SLO is configured;
//   3. `step`: if any request is prefilling, one chunked-prefill step
//      runs (the whole remaining prompt when `prefill_chunk_tokens` is
//      0) — newly arrived requests can join the prefill flight between
//      chunks;
//   4. otherwise one decode step advances every running sequence by one
//      token. Before the step each sequence's KV is grown into fresh
//      blocks; when the budget is exhausted the *last-admitted* running
//      sequence is preempted (blocks freed, recompute on re-admission,
//      re-queued at the front). The round visits only the requests *due*
//      at that step (a block crossing or a finish; all under speculation)
//      in running order; the rest commit without a visit (`ReplicaState`).
//
// A 1-replica `cluster::EventLoop` with default options reduces — engine
// call for engine call, floating-point add for add — to the original
// single-engine serving loop, which the fig15/fig16 goldens pin down.
//
// The event loop is strictly serial, so its results are the same at every
// thread count; benches get their parallelism by running whole sweep points
// side by side on the SimContext pool (bench::run_sweep).

// Multi-tenant weighted fair queuing (`--policy wfq`): requests carry a
// tenant id; admission orders the queue by each tenant's weighted service
// debt (integer tokens served / WFQ weight) plus a fixed priority-tier penalty,
// minus a linear aging credit — a waiting request's key falls without
// bound, so no tier or debt can starve it. Per-tenant KV quotas are soft:
// tenants borrow free blocks past their quota, and both admission and
// decode-growth preemption reclaim from the most over-quota tenant first.
//
// Speculative decoding (`SpeculationConfig`): a cheap draft model proposes
// `depth` tokens per round; the target model verifies all candidates in
// one batched step (`StepModel::verify_step_seconds`). Accepted-token
// counts follow the expected value of i.i.d. per-token acceptance through
// a per-request fractional accumulator, so a round commits a
// deterministic integer number of tokens — results stay bit-identical at
// every thread count. Composes with chunked prefill, preemption (a victim
// keeps its accumulator; its committed tokens are recomputed like any
// others), and the tensor/pipeline-parallel ParallelEngine.

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "serve/engine.hpp"
#include "serve/sched/block_manager.hpp"
#include "serve/sched/counters.hpp"
#include "serve/sched/request.hpp"
#include "serve/sched/tenant.hpp"
#include "serve/sched/workload.hpp"

namespace marlin::obs {
class ServeRecorder;
}  // namespace marlin::obs

namespace marlin::serve {

/// Aggregate latency metrics of one serving simulation. Field set and
/// semantics predate the scheduler subsystem — golden tables depend on
/// them.
struct ServingMetrics {
  double mean_tpot_ms = 0;  // time per output token (after the first)
  double mean_ttft_ms = 0;  // time to first token
  double p50_tpot_ms = 0;
  double p90_tpot_ms = 0;
  double p99_tpot_ms = 0;
  double p90_ttft_ms = 0;
  double mean_batch = 0;  // average decode batch the engine observed
  index_t completed = 0;
  bool operator==(const ServingMetrics&) const = default;
};

namespace sched {

enum class SchedPolicy {
  kFcfs,            // arrival order; preempted requests re-queue in front
  kShortestJob,     // smallest prompt + output first (the remaining work,
                    // fixed while a request waits); stops at a refusal
  kMaxUtilization,  // SJF's order, but scans past non-fitting requests so
                    // admission packs the KV budget
  kWeightedFair,    // multi-tenant weighted fair queuing with priority
                    // tiers, starvation-proof aging and soft KV quotas
};

const char* to_string(SchedPolicy p);
/// Parses "fcfs" / "sjf" / "max-util" / "wfq"; throws on anything else.
SchedPolicy policy_by_name(const std::string& name);

/// Draft-model speculative decoding knobs. `depth == 0` disables
/// speculation and the scheduler's decode path is untouched.
struct SpeculationConfig {
  /// Draft tokens proposed per propose-then-verify round.
  index_t depth = 0;
  /// i.i.d. probability the target model accepts one draft token.
  double acceptance = 0.7;

  [[nodiscard]] bool enabled() const { return depth > 0; }
  /// Expected committed tokens per round: the accepted draft prefix plus
  /// the target model's own token, sum_{i=0..depth} acceptance^i.
  [[nodiscard]] double expected_tokens_per_round() const;
  void validate() const;
};

/// Per-request streaming service-level objectives. Deadlines of 0 are
/// "no deadline" — the default, which leaves every legacy code path and
/// golden untouched.
///
/// * `ttft_deadline_ms` drives **deadline-aware admission with
///   shed-on-hopeless**: at every admission pass a queued request whose
///   best case — admitted right now, prefilled alone — would already
///   miss the deadline is shed (state kFinished, `Request::shed`, no
///   tokens produced) instead of wasting KV blocks and batch slots on a
///   response the client has timed out on. Requests that already
///   emitted their first token (preempted ones) are never shed.
/// * `tpot_deadline_ms` is accounted, not enforced: a completed request
///   whose realized TPOT exceeds it counts as a violation
///   (`SchedStats::slo_tpot_violations`), as does a completed request
///   that was admitted in time but still missed its TTFT deadline.
struct SloConfig {
  double ttft_deadline_ms = 0;  // 0 = no TTFT deadline
  double tpot_deadline_ms = 0;  // 0 = no TPOT deadline

  [[nodiscard]] bool enabled() const {
    return ttft_deadline_ms > 0 || tpot_deadline_ms > 0;
  }
  void validate() const;
};

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kFcfs;
  index_t max_batch = 128;
  /// Per-sequence prefill chunk in tokens; 0 = whole prompt in one step.
  index_t prefill_chunk_tokens = 0;
  BlockManagerConfig blocks;  // num_blocks == 0 keeps the KV unlimited

  /// Tenant catalog for kWeightedFair (weights, tiers, quotas). Requests
  /// from tenants absent here get a neutral default spec. The specs'
  /// `kv_block_quota`s are mirrored into `blocks.tenant_quotas` by the
  /// Scheduler constructor unless quotas were configured explicitly.
  std::vector<TenantSpec> tenants;

  /// Speculative decoding; requires a draft model when enabled.
  SpeculationConfig speculation;

  /// Streaming SLOs (TTFT shed-on-hopeless + TPOT violation accounting);
  /// disabled by default.
  SloConfig slo;
};

/// One replica's mutable serving state — everything the passive
/// Scheduler policy is ticked against. The cluster `EventLoop` owns one
/// per replica (wrapped in `cluster::Replica`); request objects
/// themselves live in the cluster-wide trace-order vector and are
/// referenced here by index. Its `RunCounters` are its share of the ledger.
struct ReplicaState : RunCounters {
  explicit ReplicaState(const BlockManagerConfig& blocks) : bm(blocks) {}

  BlockManager bm;
  std::deque<std::size_t> queue;        // waiting request indices
  std::vector<std::size_t> prefilling;  // admission order, this flight
  /// Admission order. Changed only through `join_running` /
  /// `leave_running` and by the decode round, which keep `due_steps`,
  /// `decode_batch` and `decode_context` in step with it.
  std::vector<std::size_t> running;
  /// Sum of `Request::owed_tokens()` over queue, prefilling and running:
  /// the least-loaded placement key, read in O(1) per replica. Kept
  /// exact wherever a request enters or leaves this replica or its
  /// `prefilled` changes — `cluster::Replica` (deliver, migrations) and
  /// the scheduler tick (admit, shed, reject, prefill chunk, preempt,
  /// finish). Code that pushes onto `queue` directly bypasses it.
  index_t outstanding_tokens = 0;
  /// The replica's discrete-event clock: the time its last engine step
  /// completed. Advanced by `Scheduler::step` and (when idle) by the
  /// EventLoop jumping to the next routed arrival.
  double now = 0;

  // Decode-batch bookkeeping for ServingMetrics::mean_batch.
  double batch_weighted = 0;
  double decode_time_total = 0;

  /// The running batch as the next decode step prices it: its sequences
  /// (sum of `num_sequences`) and their integer context sum, sum of
  /// num_sequences * (prompt_tokens + generated).
  index_t decode_batch = 0;
  index_t decode_context = 0;
  /// `due_steps[i]` is the decode step (the value of `decode_steps` when
  /// it runs) that must next visit `running[i]`: its next block crossing
  /// or its finish, or the next step under speculation.
  std::vector<index_t> due_steps;

  /// Tokens served per tenant id, under every policy, in exact integers:
  /// `tokens + running_seqs * decode_steps`, as each running sequence
  /// earns one token per decode step unvisited. Grown on first service.
  struct TenantService {
    index_t tokens = 0;
    index_t running_seqs = 0;
  };
  std::vector<TenantService> service;
  /// Tenant `tenant`'s slot in `service`, grown on first use.
  TenantService& service_of(index_t tenant) {
    const auto t = static_cast<std::size_t>(tenant);
    if (t >= service.size()) service.resize(t + 1);
    return service[t];
  }
  /// Tokens this replica has served tenant `tenant` (0 for none yet).
  [[nodiscard]] index_t served_tokens(index_t tenant) const {
    const auto t = static_cast<std::size_t>(tenant);
    if (t >= service.size()) return 0;
    return service[t].tokens + service[t].running_seqs * decode_steps;
  }

  /// Appends request `id` to `running`, adds it to the batch sums and
  /// makes it due at the next decode step. Its `generated` is exact.
  void join_running(std::size_t id, std::vector<Request>& requests);
  /// Removes `running[pos]` from the running batch and the batch sums,
  /// and brings its `generated` up to date.
  void leave_running(std::size_t pos, std::vector<Request>& requests);
  /// Adds `seqs` sequences of `r` (negative: removes them) to the batch
  /// sums and to its tenant's running sequences; `r.generated` is exact.
  void count_running(const Request& r, index_t seqs);
  /// `r.generated` as of this replica's last decode step, for a request
  /// in this replica's running batch or in none. A running request
  /// commits one token per plain decode step without being visited, so
  /// its field lags until its next event; read a running request's
  /// output through this, never through the field.
  [[nodiscard]] index_t generated(const Request& r) const {
    return r.synced_step < 0 ? r.generated
                             : r.generated + (decode_steps - r.synced_step);
  }

  /// Acquires `r`'s prompt KV (`prefill_target()` tokens) after reserving
  /// its lifetime block vector. With the prefix cache on and a long
  /// enough hashable prefix, the leading run of cached blocks is reused
  /// (counted in `prefix_cache_hits` / `prefix_tokens_skipped` and
  /// reported to `obs`); otherwise every block is freshly acquired.
  /// Returns the prompt tokens whose KV came out of the cache. The caller
  /// has checked `bm.can_admit`.
  index_t acquire_prompt(Request& r);
  /// Forks `r`'s extra n>1 sampling sequences off its prompt blocks (they
  /// share every block until a divergent write copies the tail); a no-op
  /// for n = 1 or when the forks exist.
  void fork_sequences(Request& r);
  /// Releases the KV of every sequence of `r` and clears its forks.
  void release_kv(Request& r);

  /// Reusable per-tick scratch buffers. Kept on the replica (not on the
  /// per-call Ticker) so a steady-state decode tick performs zero heap
  /// allocations — admission and the round compaction reuse the capacity
  /// grown on earlier ticks. Contents are meaningless between calls.
  struct TickScratch {
    /// The queue as `(admission key, request)` pairs, stable-sorted into
    /// policy order by `admit` under SJF, max-util and WFQ; FCFS
    /// admission pops the queue head in place.
    std::vector<std::pair<double, std::size_t>> keyed;
    /// Chained prefix hashes of the request whose prompt KV is being
    /// acquired, on admission or migration landing (prefix cache lookups
    /// reuse this buffer's capacity).
    std::vector<std::uint64_t> chain;
    /// Positions in `running` of the requests one decode round visits.
    std::vector<std::size_t> visits;
  };
  /// Scratch reused across `Scheduler::admit` / `Scheduler::step` ticks.
  TickScratch scratch;

  /// This replica's id in the cluster fleet (stamped by
  /// `cluster::Replica`); annotates observability events.
  index_t replica_id = 0;
  /// Borrowed observability recorder. Null — the default, and the only
  /// golden configuration — is the recording-off fast path: every
  /// instrumentation site reduces to one pointer test, so the
  /// allocation-free steady-state decode tick is preserved.
  obs::ServeRecorder* obs = nullptr;

  /// Requests in flight or waiting — a busy replica must be ticked.
  [[nodiscard]] bool busy() const {
    return !queue.empty() || !prefilling.empty() || !running.empty();
  }
  /// Admitted sequences (prefilling + running).
  [[nodiscard]] std::size_t active() const {
    return prefilling.size() + running.size();
  }
};

/// Everything one simulation produced: the golden-stable metrics, the
/// ledger summed over replicas, the fleet's KV peak and end time, and the
/// final per-request states (trace order) for policy assertions.
struct SchedStats : RunCounters, KvCounters {
  ServingMetrics metrics;
  index_t peak_kv_blocks = 0;
  double sim_end_s = 0;
  std::vector<Request> requests;
};

/// Per-tenant slice of one simulation's outcome, for fairness assertions
/// and the multi-tenant bench tables.
struct TenantMetrics {
  index_t tenant = 0;
  index_t completed = 0;
  index_t rejected = 0;
  index_t preemptions = 0;
  index_t output_tokens = 0;  // tokens generated for this tenant
  double mean_ttft_ms = 0;
  double mean_tpot_ms = 0;
};

/// Splits `stats.requests` by tenant id, ascending. Tenants that never
/// appear in the trace are absent.
[[nodiscard]] std::vector<TenantMetrics> per_tenant_metrics(
    const SchedStats& stats);

class Scheduler {
 public:
  /// Prices steps against any StepModel: the single-device `Engine` or
  /// the multi-GPU `parallel::ParallelEngine` (max over ranks plus
  /// interconnect communication). `draft_model` prices the speculative
  /// draft passes and is required iff `cfg.speculation` is enabled; it is
  /// not owned and must outlive the scheduler.
  Scheduler(const StepModel& model, SchedulerConfig cfg,
            const StepModel* draft_model = nullptr);

  // ---- passive tick API (driven by cluster::EventLoop) -----------------

  /// Fresh per-replica state carved to this scheduler's block budget.
  [[nodiscard]] ReplicaState make_replica_state() const {
    return ReplicaState(cfg_.blocks);
  }

  /// A no-op, kept because the frozen benchmark driver still calls it:
  /// tenants resolve in the constructor and a replica's service ledger
  /// grows on first service, so a replica needs no registration.
  void register_tenants(ReplicaState& /*s*/,
                        const std::vector<Request>& /*requests*/) const {}

  /// One admission pass in policy order, bounded by the batch cap and KV
  /// watermark: rejects never-fitting requests, sheds SLO-hopeless ones,
  /// reclaims quota under WFQ, and moves admitted requests to
  /// `s.prefilling`. FCFS costs O(requests taken) per pass; the sorted
  /// policies sort a snapshot of the whole queue.
  void admit(ReplicaState& s, std::vector<Request>& requests) const;

  /// One engine step at `s.now`: a chunked-prefill round if any request
  /// is prefilling, otherwise KV growth / preemption plus one decode (or
  /// speculative propose-then-verify) round for every running sequence.
  /// The decode round visits only the requests due at this step (every
  /// one under speculation). Advances `s.now`; a no-op when nothing is
  /// admitted.
  void step(ReplicaState& s, std::vector<Request>& requests) const;

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }
  [[nodiscard]] const StepModel& model() const { return model_; }
  [[nodiscard]] const StepModel* draft_model() const { return draft_model_; }
  /// Tenant `id`'s configured spec, or the neutral default spec (weight 1,
  /// tier 0, no quota) for an id the config does not list.
  [[nodiscard]] const TenantSpec& tenant(index_t id) const;

 private:
  const StepModel& model_;
  const StepModel* draft_model_;
  SchedulerConfig cfg_;
  std::map<index_t, TenantSpec> tenants_;  // cfg_.tenants by id
  double spec_expected_ = 1.0;  // expected committed tokens per round
};

/// The legacy metrics tail over the final request states (trace order):
/// mean/p90 TTFT and TPOT over completed requests, plus the
/// decode-time-weighted mean batch. Field semantics predate the
/// scheduler subsystem — golden tables depend on them.
[[nodiscard]] ServingMetrics metrics_from_requests(
    const std::vector<Request>& requests, double batch_weighted,
    double decode_time_total);

}  // namespace sched
}  // namespace marlin::serve
