#include "serve/sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/serve_recorder.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace marlin::serve::sched {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFcfs:
      return "fcfs";
    case SchedPolicy::kShortestJob:
      return "sjf";
    case SchedPolicy::kMaxUtilization:
      return "max-util";
    case SchedPolicy::kWeightedFair:
      return "wfq";
  }
  return "?";
}

SchedPolicy policy_by_name(const std::string& name) {
  for (const auto p : {SchedPolicy::kFcfs, SchedPolicy::kShortestJob,
                       SchedPolicy::kMaxUtilization,
                       SchedPolicy::kWeightedFair}) {
    if (name == to_string(p)) return p;
  }
  MARLIN_CHECK(false, "unknown scheduling policy `"
                          << name << "`; known: fcfs, sjf, max-util, wfq");
  return SchedPolicy::kFcfs;  // unreachable
}

double SpeculationConfig::expected_tokens_per_round() const {
  // Accepted draft prefix plus the target model's own token:
  // sum_{i=0..depth} acceptance^i. Summed termwise (depth is small) so
  // the value is bit-identical everywhere, acceptance == 1 included.
  double expected = 0.0;
  double term = 1.0;
  for (index_t i = 0; i <= depth; ++i) {
    expected += term;
    term *= acceptance;
  }
  return expected;
}

void SpeculationConfig::validate() const {
  MARLIN_CHECK(depth >= 0, "speculation depth must be >= 0");
  MARLIN_CHECK(acceptance >= 0.0 && acceptance <= 1.0,
               "draft acceptance must be in [0, 1] (got " << acceptance
                                                          << ")");
}

void SloConfig::validate() const {
  MARLIN_CHECK(ttft_deadline_ms >= 0,
               "negative TTFT deadline (" << ttft_deadline_ms << " ms)");
  MARLIN_CHECK(tpot_deadline_ms >= 0,
               "negative TPOT deadline (" << tpot_deadline_ms << " ms)");
}

namespace {

// One request's latency metrics — the single definition the metrics
// tail, the per-tenant split and the SLO accounting all report from.
double request_ttft_ms(const Request& r) {
  return (r.first_token_s - r.arrival_s) * 1e3;
}
double request_tpot_ms(const Request& r) {
  return (r.finish_s - r.first_token_s) /
         static_cast<double>(std::max<index_t>(1, r.output_tokens - 1)) * 1e3;
}

}  // namespace

std::vector<TenantMetrics> per_tenant_metrics(const SchedStats& stats) {
  std::map<index_t, TenantMetrics> by_tenant;
  std::map<index_t, std::vector<double>> ttfts, tpots;
  for (const Request& r : stats.requests) {
    TenantMetrics& t = by_tenant[r.tenant_id];
    t.tenant = r.tenant_id;
    t.preemptions += r.preemptions;
    if (r.rejected) {
      ++t.rejected;
      continue;
    }
    if (r.finish_s < 0) continue;
    ++t.completed;
    t.output_tokens += r.generated;
    ttfts[r.tenant_id].push_back(request_ttft_ms(r));
    tpots[r.tenant_id].push_back(request_tpot_ms(r));
  }
  std::vector<TenantMetrics> out;
  out.reserve(by_tenant.size());
  for (auto& [tenant, metrics] : by_tenant) {
    if (!ttfts[tenant].empty()) {
      metrics.mean_ttft_ms = mean(ttfts[tenant]);
      metrics.mean_tpot_ms = mean(tpots[tenant]);
    }
    out.push_back(metrics);
  }
  return out;
}

ServingMetrics metrics_from_requests(const std::vector<Request>& requests,
                                     double batch_weighted,
                                     double decode_time_total) {
  ServingMetrics m;
  std::vector<double> tpots, ttfts;
  for (const Request& r : requests) {
    if (r.finish_s < 0) continue;
    ++m.completed;
    ttfts.push_back(request_ttft_ms(r));
    tpots.push_back(request_tpot_ms(r));
  }
  if (!tpots.empty()) {
    m.mean_tpot_ms = mean(tpots);
    m.mean_ttft_ms = mean(ttfts);
    m.p50_tpot_ms = percentile(tpots, 50.0);
    m.p90_tpot_ms = percentile(tpots, 90.0);
    m.p99_tpot_ms = percentile(tpots, 99.0);
    m.p90_ttft_ms = percentile(ttfts, 90.0);
  }
  m.mean_batch =
      decode_time_total > 0 ? batch_weighted / decode_time_total : 0.0;
  return m;
}

namespace {

/// One tick's worth of scheduling against a ReplicaState — the former
/// scheduler run-loop body, with its helper lambdas promoted to member
/// functions. Constructed per Scheduler::admit/step call (it only
/// bundles references); every floating-point operation happens in the
/// exact order of the legacy loop, which is what keeps a 1-replica
/// cluster byte-identical to the pre-cluster goldens.
class Ticker {
 public:
  Ticker(const Scheduler& sched, double spec_expected, ReplicaState& s,
         std::vector<Request>& requests)
      : sched_(sched), cfg_(sched.config()), model_(sched.model()),
        draft_(sched.draft_model()),
        wfq_(cfg_.policy == SchedPolicy::kWeightedFair),
        spec_expected_(spec_expected), s_(s), requests_(requests) {}

  void admit();
  void step();

 private:
  // Admission priority key of the sorted policies; smaller admits first
  // (FCFS walks the queue head unsorted).
  [[nodiscard]] double admission_key(const Request& r) const {
    if (!wfq_) {
      // SJF and max-util: prompt + output - 1, SJF's remaining work less
      // one, fixed while a request waits; exact as a double below 2^53.
      return static_cast<double>(r.max_kv_tokens());
    }
    // WFQ: weighted service debt plus a fixed penalty per priority tier,
    // minus a linear aging credit. A waiting request's key falls without
    // bound while everyone else's only rises with service, so no tier or
    // debt can starve it.
    // One priority tier outranks this many tokens of weighted service debt.
    constexpr double kTierPenaltyTokens = 8192.0;
    // Waiting one second forgives this many tokens of weighted service
    // debt (and, eventually, any tier penalty); positive, so no request
    // starves.
    constexpr double kAgingTokensPerS = 256.0;
    const TenantSpec& tenant = sched_.tenant(r.tenant_id);
    return static_cast<double>(s_.served_tokens(r.tenant_id)) /
               tenant.weight +
           static_cast<double>(tenant.tier) * kTierPenaltyTokens -
           kAgingTokensPerS * (s_.now - r.arrival_s);
  }

  // New prompt tokens `r` prefills in this round: the rest of its prompt,
  // capped at the chunk size when prefill is chunked.
  [[nodiscard]] index_t prefill_chunk(const Request& r) const {
    const index_t rest = r.prefill_target() - r.prefilled;
    return cfg_.prefill_chunk_tokens > 0
               ? std::min(rest, cfg_.prefill_chunk_tokens)
               : rest;
  }

  // A request that can never hold prompt + output tokens under the budget
  // (keeping the watermark free for its admission) would starve the queue
  // forever; refuse it outright. `max_kv_blocks` counts full prompt
  // blocks once across n>1 sampling sequences (CoW sharing).
  [[nodiscard]] bool never_fits(const Request& r) const {
    return !s_.bm.unlimited() &&
           r.max_kv_blocks(s_.bm.block_size()) + s_.bm.watermark_blocks() >
               s_.bm.total_blocks();
  }

  // Physical block references a request holds across all its sequences
  // (shared blocks count once per referencing sequence — the reclaim
  // planner treats this as an upper bound on what a preemption frees).
  [[nodiscard]] static index_t held_blocks(const Request& r) {
    index_t total = r.blocks.count();
    for (const SequenceBlocks& f : r.forks) total += f.count();
    return total;
  }

  // Deadline-aware admission: hopeless iff even an immediate solo
  // prefill (the request's best case) would miss the TTFT deadline.
  // Requests that already emitted their first token (preempted ones)
  // have their TTFT decided and are never shed.
  [[nodiscard]] bool slo_hopeless(const Request& r) const {
    const double deadline_ms = cfg_.slo.ttft_deadline_ms;
    if (deadline_ms <= 0 || r.first_token_s >= 0) return false;
    const double best_ttft_s = (s_.now - r.arrival_s) +
                               model_.prefill_seconds(1, r.prefill_target());
    return best_ttft_s * 1e3 > deadline_ms;
  }

  // The only way the tick moves `r.prefilled`: keeps the replica's
  // least-loaded key exact across the change.
  void set_prefilled(Request& r, index_t prefilled) {
    s_.outstanding_tokens -= r.owed_tokens();
    r.prefilled = prefilled;
    s_.outstanding_tokens += r.owed_tokens();
  }

  void preempt_running_at(std::size_t pos) {
    MARLIN_ASSERT(pos < s_.running.size());
    const std::size_t victim = s_.running[pos];
    s_.leave_running(pos, requests_);
    Request& v = requests_[victim];
    v.set_state(RequestState::kPreempted);
    const index_t blocks_freed = held_blocks(v);
    // Releasing decrements refcounts; published prompt blocks park in the
    // prefix cache, so the recompute prefill usually re-hits them.
    s_.release_kv(v);
    set_prefilled(v, 0);
    ++v.preemptions;
    ++s_.preemptions;
    s_.queue.push_front(victim);
    if (s_.obs != nullptr) {
      s_.obs->on_preempted(s_.now, v.id, s_.replica_id, blocks_freed);
    }
  }

  // The most over-quota tenant's last-admitted running sequence: the
  // single victim-preference rule shared by decode-growth preemption
  // (live BlockManager state) and admission reclaim (snapshot planning).
  // Skips `exclude_tenant`'s sequences (-1 excludes nobody — tenant ids
  // are >= 0) and positions flagged in `skip` (may be null); `over_fn`
  // maps a tenant to its over-quota block count. Returns running.size()
  // when every considered tenant is within quota.
  template <typename OverFn>
  [[nodiscard]] std::size_t most_over_quota_victim(
      index_t exclude_tenant, const OverFn& over_fn,
      const std::vector<bool>* skip) const {
    std::size_t best = s_.running.size();
    index_t worst_over = 0;
    for (std::size_t i = s_.running.size(); i-- > 0;) {
      const Request& v = requests_[s_.running[i]];
      if ((skip != nullptr && (*skip)[i]) || v.tenant_id == exclude_tenant) {
        continue;
      }
      const index_t over = over_fn(v.tenant_id);
      if (over > worst_over) {
        worst_over = over;
        best = i;
      }
    }
    return best;
  }

  // Decode-growth victim: under WFQ, the last-admitted sequence of the
  // most over-quota tenant (borrowers give their blocks back first); the
  // last-admitted sequence otherwise — and under WFQ when every tenant is
  // within quota, which reproduces the legacy rule.
  [[nodiscard]] std::size_t choose_victim_pos() const {
    MARLIN_ASSERT(!s_.running.empty());
    if (wfq_) {
      const auto live_over_quota = [this](index_t tenant) {
        return s_.bm.over_quota_blocks(tenant);
      };
      const std::size_t best =
          most_over_quota_victim(-1, live_over_quota, nullptr);
      if (best < s_.running.size()) return best;
    }
    return s_.running.size() - 1;
  }

  // WFQ borrow-and-reclaim: when a within-quota tenant's admission is
  // blocked, preempt over-quota borrowers (other tenants, last-admitted
  // first, most over-quota tenant first) until the candidate fits. A
  // quota is thus a capacity *guarantee*, while idle blocks stay
  // lendable. The greedy victim selection is planned on a snapshot
  // first and only executed when it fully covers the admission —
  // otherwise nobody is preempted, because a partial reclaim would
  // destroy victims' KV (recompute on re-admission) without admitting
  // anyone.
  void reclaim_for(const Request& r) {
    const index_t needed = s_.bm.blocks_for_tokens(r.prefill_target());
    if (!s_.bm.within_quota(r.tenant_id, needed)) {
      return;  // borrowers wait for genuinely free blocks
    }
    // Snapshot of the quantities the greedy loop mutates.
    index_t free = s_.bm.free_blocks();
    std::map<index_t, index_t> used;
    for (const std::size_t id : s_.running) {
      const index_t tenant = requests_[id].tenant_id;
      if (!used.contains(tenant)) {
        used[tenant] = s_.bm.tenant_used_blocks(tenant);
      }
    }
    const auto snapshot_over_quota = [&](index_t tenant) {
      const index_t quota = s_.bm.effective_quota(tenant);
      if (quota == kNoQuota) return index_t{0};
      return std::max<index_t>(0, used.find(tenant)->second - quota);
    };
    std::vector<bool> planned(s_.running.size(), false);
    std::vector<std::size_t> plan;  // victim request ids, greedy order
    while (needed + s_.bm.watermark_blocks() > free) {
      const std::size_t best =
          most_over_quota_victim(r.tenant_id, snapshot_over_quota, &planned);
      if (best >= s_.running.size()) return;  // infeasible: preempt nobody
      planned[best] = true;
      plan.push_back(s_.running[best]);
      const auto held = held_blocks(requests_[s_.running[best]]);
      free += held;
      used[requests_[s_.running[best]].tenant_id] -= held;
    }
    for (const std::size_t victim_id : plan) {
      const auto pos = static_cast<std::size_t>(
          std::find(s_.running.begin(), s_.running.end(), victim_id) -
          s_.running.begin());
      preempt_running_at(pos);
    }
  }

  // Committed tokens of one speculative propose-then-verify round for
  // `r`: the fractional accumulator keeps the long-run average at
  // `spec_expected_` while every round commits a whole number of tokens
  // (at least the target model's own token, at most what is still owed).
  [[nodiscard]] index_t commit_tokens(const Request& r) const {
    if (!cfg_.speculation.enabled()) return 1;
    const index_t remaining = r.output_tokens - r.generated;
    const auto c =
        static_cast<index_t>(std::floor(r.spec_credit + spec_expected_));
    return std::clamp<index_t>(c, 1, std::max<index_t>(1, remaining));
  }

  // The step a request's next decode visit falls on, from `r.generated`
  // as of `s_.decode_steps`: its first growth past a handle's writable
  // mark or its finishing commit, whichever comes first. Under
  // speculation it is the next step: the commit credit moves every step.
  [[nodiscard]] index_t next_visit(const Request& r) const {
    if (cfg_.speculation.enabled()) return s_.decode_steps;
    index_t writable = r.blocks.writable_end();
    for (const SequenceBlocks& f : r.forks) {
      writable = std::min(writable, f.writable_end());
    }
    // Plain steps grow to prompt + generated tokens, one more per step.
    const index_t to_crossing = writable - (r.prompt_tokens + r.generated) + 1;
    const index_t to_finish = r.output_tokens - 1 - r.generated;
    return s_.decode_steps + std::min(to_crossing, to_finish);
  }

  // Completion: SLO accounting, every sequence's KV released.
  void finish(Request& r) {
    r.finish_s = s_.now;
    if (cfg_.slo.tpot_deadline_ms > 0 &&
        request_tpot_ms(r) > cfg_.slo.tpot_deadline_ms) {
      ++s_.slo_tpot_violations;
      if (s_.obs != nullptr) s_.obs->on_slo_tpot_violation(s_.now, r.id);
    }
    r.set_state(RequestState::kFinished);
    s_.outstanding_tokens -= r.owed_tokens();
    s_.release_kv(r);
    if (s_.obs != nullptr) {
      s_.obs->on_finished(s_.now, r.id, r.generated, request_ttft_ms(r),
                          request_tpot_ms(r));
    }
  }

  // One queued request's admission attempt, shared by every policy:
  // shed if SLO-hopeless, reject if it never fits, WFQ reclaim, then
  // the watermark test and the prefix-cache or plain prefill
  // allocation. True when the request left the queue (shed, rejected or
  // admitted); false when the watermark refused it.
  bool take(std::size_t id);

  void prefill_round();
  void decode_round();

  const Scheduler& sched_;
  const SchedulerConfig& cfg_;
  const StepModel& model_;
  const StepModel* draft_;
  bool wfq_;
  double spec_expected_;
  ReplicaState& s_;
  std::vector<Request>& requests_;
};

void Ticker::admit() {
  // Admission in policy order, bounded by batch cap and KV watermark.
  const auto batch_cap = static_cast<std::size_t>(cfg_.max_batch);
  if (s_.queue.empty() || s_.active() >= batch_cap) return;
  if (cfg_.policy == SchedPolicy::kFcfs) {
    // FCFS takes a prefix of the queue — it stops at the first request
    // the watermark refuses — so it walks the head and pops each request
    // it takes: O(taken) per pass, however deep the queue.
    while (!s_.queue.empty() && s_.active() < batch_cap &&
           take(s_.queue.front())) {
      s_.queue.pop_front();
    }
    return;
  }
  // The sorted policies take requests from anywhere in the queue: admit
  // from a snapshot in policy order, then erase what left. Keys are
  // loop-invariant during the sort, so each is computed once; the sort
  // is stable, so equal keys keep queue order. `keyed` keeps its grown
  // capacity across ticks.
  std::vector<std::pair<double, std::size_t>>& keyed = s_.scratch.keyed;
  keyed.clear();
  for (const std::size_t id : s_.queue) {
    keyed.emplace_back(admission_key(requests_[id]), id);
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, id] : keyed) {
    if (s_.active() >= batch_cap) break;
    // SJF respects head-of-line order; max-util and WFQ keep scanning
    // for anything that still fits.
    if (!take(id) && cfg_.policy == SchedPolicy::kShortestJob) break;
  }
  // Taken requests left the queued states; reclaim victims re-queued.
  std::erase_if(s_.queue, [&](std::size_t id) {
    const RequestState st = requests_[id].state;
    return st != RequestState::kQueued && st != RequestState::kPreempted;
  });
}

bool Ticker::take(std::size_t id) {
  Request& r = requests_[id];
  if (slo_hopeless(r)) {
    r.shed = true;
    r.set_state(RequestState::kFinished);
    s_.outstanding_tokens -= r.owed_tokens();
    ++s_.shed;
    if (s_.obs != nullptr) s_.obs->on_shed(s_.now, r.id);
    return true;
  }
  if (never_fits(r)) {
    r.rejected = true;
    r.set_state(RequestState::kFinished);
    s_.outstanding_tokens -= r.owed_tokens();
    ++s_.rejected;
    if (s_.obs != nullptr) s_.obs->on_rejected(s_.now, r.id);
    return true;
  }
  if (wfq_ && !s_.bm.can_admit(r.prefill_target())) {
    reclaim_for(r);
  }
  if (!s_.bm.can_admit(r.prefill_target())) return false;
  // Chunked prefill starts past the cached run — those tokens' KV
  // already exists, so their prefill compute is skipped outright.
  const index_t cached_tokens = s_.acquire_prompt(r);
  r.set_state(RequestState::kPrefilling);
  set_prefilled(r, cached_tokens);
  s_.prefilling.push_back(id);
  if (s_.obs != nullptr) {
    s_.obs->on_admitted(s_.now, r.id, s_.replica_id, r.blocks.count());
  }
  return true;
}

void Ticker::prefill_round() {
  // One prefill chunk round over the whole prefill flight.
  double total_new = 0.0;
  for (const std::size_t id : s_.prefilling) {
    total_new += static_cast<double>(prefill_chunk(requests_[id]));
  }
  const auto count = static_cast<index_t>(s_.prefilling.size());
  // Mean new tokens per sequence prices the chunk; with a uniform
  // flight (the goldens path) this is exactly each sequence's prompt.
  const auto tokens_per_seq = static_cast<index_t>(
      std::llround(total_new / static_cast<double>(count)));
  const double t0 = s_.now;
  s_.now +=
      model_.prefill_seconds(count, std::max<index_t>(1, tokens_per_seq));
  ++s_.prefill_steps;
  if (s_.obs != nullptr) {
    s_.obs->on_prefill_step(t0, s_.now, s_.replica_id, count,
                            std::max<index_t>(1, tokens_per_seq));
  }

  // Stable in-place compaction (the write index trails the read index),
  // so no per-round vector is allocated.
  std::size_t keep = 0;
  for (const std::size_t id : s_.prefilling) {
    Request& r = requests_[id];
    const index_t chunk = prefill_chunk(r);
    set_prefilled(r, r.prefilled + chunk);
    s_.service_of(r.tenant_id).tokens += chunk;
    if (r.prefilled < r.prefill_target()) {
      s_.prefilling[keep++] = id;
      continue;
    }
    r.set_state(RequestState::kRunning);
    // The prompt KV now exists: publish the hashed blocks into the prefix
    // cache (no-op when the cache is off).
    s_.bm.publish(r.blocks);
    const bool first_token = r.first_token_s < 0;
    if (first_token) {
      r.first_token_s = s_.now;  // prefill emits #1
      if (cfg_.slo.ttft_deadline_ms > 0 &&
          request_ttft_ms(r) > cfg_.slo.ttft_deadline_ms) {
        ++s_.slo_ttft_violations;
        if (s_.obs != nullptr) s_.obs->on_slo_ttft_violation(s_.now, r.id);
      }
    }
    if (s_.obs != nullptr) {
      s_.obs->on_prefill_done(s_.now, r.id, first_token,
                              first_token ? request_ttft_ms(r) : 0.0);
    }
    r.generated = std::max<index_t>(r.generated, 1);
    if (r.generated >= r.output_tokens) {
      finish(r);  // a 1-token output: the prefill emitted all of it
      continue;
    }
    s_.fork_sequences(r);
    s_.join_running(id, requests_);
  }
  s_.prefilling.resize(keep);
}

void Ticker::decode_round() {
  const SpeculationConfig& spec = cfg_.speculation;
  std::vector<std::size_t>& running = s_.running;
  std::vector<index_t>& due = s_.due_steps;
  // Marks a visit whose request left `running` (and, below, a finisher's
  // slot in `running`).
  constexpr std::size_t kGone = std::numeric_limits<std::size_t>::max();

  // The positions in `running` of the requests due at this step. One that
  // is not due neither grows past its writable mark nor finishes: its
  // `grow_to` would return inline and its commit is the one token every
  // survivor gets below, so it is not visited.
  std::vector<std::size_t>& visits = s_.scratch.visits;
  visits.resize(running.size());
  std::size_t due_count = 0;
  for (std::size_t i = 0; i < running.size(); ++i) {
    visits[due_count] = i;
    due_count += due[i] <= s_.decode_steps ? 1 : 0;
  }
  visits.resize(due_count);
  s_.decode_visits += static_cast<index_t>(due_count);

  // Grow each visited request's KV for the tokens this step commits (one
  // for plain decode, the speculative commit otherwise); preempt the
  // policy's victim when the budget runs dry. A victim leaves the batch
  // sums, so they price the surviving running set.
  // `pos` is a reference: a preemption below moves it with `running`.
  for (const std::size_t& pos : visits) {
    if (pos == kGone) continue;  // an earlier visit's victim
    Request& r = requests_[running[pos]];
    r.generated = s_.generated(r);
    r.synced_step = s_.decode_steps;
    // KV the sequences have written so far: the last emitted token's KV
    // lands during this step, hence the -1. Every sequence of an n>1
    // request decodes in lockstep, so target and write range are shared;
    // growth past a still-shared block copy-on-writes it first.
    const index_t target =
        r.prompt_tokens + r.generated + commit_tokens(r) - 1;
    const index_t covered = r.prompt_tokens + r.generated - 1;
    bool preempted_self = false;
    for (std::size_t h = 0; h <= r.forks.size() && !preempted_self; ++h) {
      SequenceBlocks& seq = h == 0 ? r.blocks : r.forks[h - 1];
      while (!s_.bm.grow_to(seq, target, covered, r.tenant_id)) {
        MARLIN_ASSERT(!running.empty());
        const std::size_t victim = choose_victim_pos();
        preempted_self = victim == pos;
        preempt_running_at(victim);
        // `running` closed up over the victim: keep the visits current.
        for (std::size_t& v : visits) {
          if (v != kGone && v >= victim) v = v == victim ? kGone : v - 1;
        }
        if (preempted_self) break;
      }
    }
  }
  if (running.empty()) return;

  // One decode step for all running sequences: a plain one-token step,
  // or a speculative round (draft proposes `depth` tokens sequentially,
  // the target verifies every candidate in one batched step). Each of the
  // n sampled sequences occupies a batch slot with the same context
  // length (lockstep decoding). The context sum is exact in int64 and
  // stays an integer below 2^53, so `avg_ctx` has the bits of a double
  // sum over the running set.
  const index_t batch = s_.decode_batch;
  const double avg_ctx = static_cast<double>(s_.decode_context) /
                         static_cast<double>(batch);
  const double t0 = s_.now;
  double t_step;
  if (spec.enabled()) {
    t_step = static_cast<double>(spec.depth) *
                 draft_->decode_step_seconds(batch, avg_ctx) +
             model_.verify_step_seconds(batch, avg_ctx, spec.depth);
    ++s_.spec_rounds;
    s_.spec_draft_tokens += spec.depth * batch;
  } else {
    t_step = model_.decode_step_seconds(batch, avg_ctx);
  }
  s_.now += t_step;
  s_.batch_weighted += static_cast<double>(batch) * t_step;
  s_.decode_time_total += t_step;
  ++s_.decode_steps;
  if (s_.obs != nullptr) {
    if (spec.enabled()) {
      s_.obs->on_spec_round(t0, s_.now, s_.replica_id, batch,
                            spec.depth * batch);
    } else {
      s_.obs->on_decode_step(t0, s_.now, s_.replica_id, batch, avg_ctx);
    }
    double compute_s = 0, comm_s = 0, bubble = 0;
    if (model_.decode_split(batch, avg_ctx, &compute_s, &comm_s, &bubble)) {
      s_.obs->on_decode_split(s_.now, s_.replica_id, compute_s, comm_s,
                              bubble);
    }
  }

  // Every running request commits one token; `ReplicaState::generated`
  // counts it for the unvisited ones. A visited request commits its own
  // count and then finishes or gets its next due step. Finishers leave
  // `running` in one stable in-place compaction from the first of them:
  // a steady-state decode tick must not allocate.
  s_.decode_context += batch;
  std::size_t first_finished = kGone;
  for (const std::size_t pos : visits) {
    if (pos == kGone) continue;
    Request& r = requests_[running[pos]];
    const index_t committed = commit_tokens(r);
    if (spec.enabled()) {
      r.spec_credit =
          r.spec_credit + spec_expected_ - static_cast<double>(committed);
      s_.spec_committed_tokens += committed * r.num_sequences;
      // `running_seqs` charged one token per sequence; charge the rest.
      s_.service_of(r.tenant_id).tokens += r.num_sequences * (committed - 1);
    }
    r.generated += committed;
    r.synced_step = s_.decode_steps;
    s_.decode_context += r.num_sequences * (committed - 1);
    if (r.generated < r.output_tokens) {
      due[pos] = next_visit(r);
      continue;
    }
    finish(r);
    r.synced_step = -1;
    s_.count_running(r, -r.num_sequences);
    running[pos] = kGone;
    first_finished = std::min(first_finished, pos);
  }
  if (first_finished == kGone) return;
  std::size_t keep = first_finished;
  for (std::size_t i = first_finished + 1; i < running.size(); ++i) {
    if (running[i] == kGone) continue;
    running[keep] = running[i];
    due[keep] = due[i];
    ++keep;
  }
  running.resize(keep);
  due.resize(keep);
}

void Ticker::step() {
  if (!s_.prefilling.empty()) {
    prefill_round();
    return;  // EventLoop re-checks arrivals before the next engine step
  }
  decode_round();  // a no-op with nothing running
}

}  // namespace

Scheduler::Scheduler(const StepModel& model, SchedulerConfig cfg,
                     const StepModel* draft_model)
    : model_(model), draft_model_(draft_model), cfg_(std::move(cfg)) {
  MARLIN_CHECK(cfg_.max_batch >= 1, "max_batch must be >= 1");
  MARLIN_CHECK(cfg_.prefill_chunk_tokens >= 0, "negative prefill chunk");
  for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
    cfg_.tenants[i].validate();
    for (std::size_t j = 0; j < i; ++j) {
      MARLIN_CHECK(cfg_.tenants[i].id != cfg_.tenants[j].id,
                   "duplicate tenant id " << cfg_.tenants[i].id);
    }
  }
  cfg_.speculation.validate();
  cfg_.slo.validate();
  MARLIN_CHECK(!cfg_.speculation.enabled() || draft_model_ != nullptr,
               "speculative decoding needs a draft StepModel");
  // Mirror the tenant specs' soft KV quotas into the block manager unless
  // quotas were configured there explicitly.
  if (cfg_.blocks.tenant_quotas.empty()) {
    for (const TenantSpec& t : cfg_.tenants) {
      if (t.kv_block_quota != kNoQuota) {
        cfg_.blocks.tenant_quotas.emplace_back(t.id, t.kv_block_quota);
      }
    }
  }
  if (cfg_.speculation.enabled()) {
    spec_expected_ = cfg_.speculation.expected_tokens_per_round();
  }
  for (const TenantSpec& t : cfg_.tenants) tenants_.emplace(t.id, t);
}

const TenantSpec& Scheduler::tenant(index_t id) const {
  static const TenantSpec kNeutral;
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? kNeutral : it->second;
}

index_t ReplicaState::acquire_prompt(Request& r) {
  // Reserve the lifetime footprint up front so decode-time `grow_to`
  // never reallocates the block-id vector.
  r.blocks.reserve(
      static_cast<std::size_t>(bm.blocks_for_tokens(r.max_kv_tokens())));
  const index_t need = bm.blocks_for_tokens(r.prefill_target());
  const PrefixCacheConfig& pc = bm.config().prefix_cache;
  if (!pc.enabled ||
      r.hashable_prefix_blocks(bm.block_size()) < pc.min_prefix_blocks) {
    bm.acquire(r.blocks, need, r.tenant_id);
    return 0;
  }
  r.append_prefix_chain(bm.block_size(), need, scratch.chain);
  const index_t hits =
      bm.acquire_prefill(r.blocks, need, scratch.chain, r.tenant_id);
  const index_t cached_tokens = hits * bm.block_size();
  prefix_tokens_skipped += cached_tokens;
  if (hits > 0) {
    ++prefix_cache_hits;
    if (obs != nullptr) {
      obs->on_prefix_cache_hit(now, r.id, replica_id, hits, cached_tokens);
    }
  }
  return cached_tokens;
}

void ReplicaState::fork_sequences(Request& r) {
  if (r.num_sequences <= 1 || !r.forks.empty()) return;
  const index_t per_seq = bm.blocks_for_tokens(r.max_kv_tokens());
  r.forks.reserve(static_cast<std::size_t>(r.num_sequences - 1));
  for (index_t k = 1; k < r.num_sequences; ++k) {
    r.forks.push_back(bm.fork(r.blocks, r.tenant_id, per_seq));
  }
}

void ReplicaState::join_running(std::size_t id,
                                std::vector<Request>& requests) {
  Request& r = requests[id];
  running.push_back(id);
  due_steps.push_back(decode_steps);
  r.synced_step = decode_steps;
  count_running(r, r.num_sequences);
}

void ReplicaState::leave_running(std::size_t pos,
                                 std::vector<Request>& requests) {
  MARLIN_ASSERT(pos < running.size());
  Request& r = requests[running[pos]];
  running.erase(running.begin() + static_cast<std::ptrdiff_t>(pos));
  due_steps.erase(due_steps.begin() + static_cast<std::ptrdiff_t>(pos));
  r.generated = generated(r);
  r.synced_step = -1;
  count_running(r, -r.num_sequences);
}

void ReplicaState::count_running(const Request& r, index_t seqs) {
  decode_batch += seqs;
  decode_context += seqs * (r.prompt_tokens + r.generated);
  TenantService& t = service_of(r.tenant_id);
  t.tokens -= seqs * decode_steps;
  t.running_seqs += seqs;
}

void ReplicaState::release_kv(Request& r) {
  bm.release(r.blocks, r.tenant_id);
  for (SequenceBlocks& f : r.forks) bm.release(f, r.tenant_id);
  r.forks.clear();
}

void Scheduler::admit(ReplicaState& s, std::vector<Request>& requests) const {
  Ticker(*this, spec_expected_, s, requests).admit();
}

void Scheduler::step(ReplicaState& s, std::vector<Request>& requests) const {
  Ticker(*this, spec_expected_, s, requests).step();
}

}  // namespace marlin::serve::sched
