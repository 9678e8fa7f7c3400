// Multi-tenant scheduling + speculative decoding: per-tenant quota
// arithmetic edge cases (zero-quota tenants, quota > budget,
// borrow-then-reclaim round trips), WFQ fairness/tiering/aging, tenant
// trace mixes, and the speculative propose-then-verify step mode
// (determinism across thread counts included).

#include <gtest/gtest.h>

#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"

namespace marlin::serve::sched {
namespace {

// ------------------------------------------------------- quota arithmetic

BlockManagerConfig quota_cfg(
    index_t num_blocks,
    std::vector<std::pair<index_t, index_t>> quotas) {
  BlockManagerConfig cfg;
  cfg.block_size = 16;
  cfg.num_blocks = num_blocks;
  cfg.watermark = 0.0;
  cfg.tenant_quotas = std::move(quotas);
  return cfg;
}

TEST(TenantQuota, SoftQuotaTracksPerTenantUsage) {
  BlockManager bm(quota_cfg(16, {{0, 4}, {1, 8}}));
  SequenceBlocks a, b, c;
  bm.acquire(a, 4, /*tenant=*/0);
  EXPECT_EQ(bm.tenant_used_blocks(0), 4);
  EXPECT_EQ(bm.over_quota_blocks(0), 0);
  EXPECT_TRUE(bm.within_quota(0, 0));
  EXPECT_FALSE(bm.within_quota(0, 1));
  // Soft: exceeding the quota is *allowed* while free blocks exist...
  bm.acquire(b, 3, /*tenant=*/0);
  EXPECT_EQ(bm.tenant_used_blocks(0), 7);
  EXPECT_EQ(bm.over_quota_blocks(0), 3);  // ...but counts as borrowing.
  // An unquoted tenant never reads as over-quota.
  bm.acquire(c, 5, /*tenant=*/7);
  EXPECT_FALSE(bm.has_quota(7));
  EXPECT_EQ(bm.effective_quota(7), kNoQuota);
  EXPECT_EQ(bm.over_quota_blocks(7), 0);
  bm.release(a, 0);
  bm.release(b, 0);
  bm.release(c, 7);
  EXPECT_EQ(bm.tenant_used_blocks(0), 0);
}

TEST(TenantQuota, ZeroQuotaTenantIsBorrowOnly) {
  // An explicit quota of 0 is NOT "no quota": the tenant may only borrow,
  // so any held block immediately reads as over-quota (the preferred
  // preemption victim).
  BlockManager bm(quota_cfg(8, {{3, 0}}));
  EXPECT_TRUE(bm.has_quota(3));
  EXPECT_EQ(bm.effective_quota(3), 0);
  EXPECT_TRUE(bm.within_quota(3, 0));
  EXPECT_FALSE(bm.within_quota(3, 1));
  SequenceBlocks held;
  bm.acquire(held, 2, /*tenant=*/3);
  EXPECT_EQ(bm.over_quota_blocks(3), 2);
  bm.release(held, 3);
  EXPECT_EQ(bm.over_quota_blocks(3), 0);
}

TEST(TenantQuota, QuotaLargerThanBudgetClampsToBudget) {
  // A quota can be configured past the budget, but it cannot promise more
  // blocks than the cache holds: the *effective* quota clamps.
  BlockManager bm(quota_cfg(8, {{0, 100}}));
  EXPECT_EQ(bm.effective_quota(0), 8);
  EXPECT_TRUE(bm.within_quota(0, 8));
  EXPECT_FALSE(bm.within_quota(0, 9));
  // Unlimited caches have nothing to clamp against.
  BlockManager unlimited(quota_cfg(0, {{0, 100}}));
  EXPECT_EQ(unlimited.effective_quota(0), 100);
}

TEST(TenantQuota, BorrowThenReclaimRoundTrip) {
  // Borrow: tenant 0 (quota 3) takes 6 of 8 blocks while the cache is
  // idle. Reclaim: freeing the borrowed half restores the quota budget
  // and the over-quota reading drops back to zero — the accounting the
  // scheduler's reclaim preemption relies on.
  BlockManager bm(quota_cfg(8, {{0, 3}, {1, 5}}));
  SequenceBlocks within, borrowed, t1;
  bm.acquire(within, 3, /*tenant=*/0);
  bm.acquire(borrowed, 3, /*tenant=*/0);
  EXPECT_EQ(bm.over_quota_blocks(0), 3);
  EXPECT_EQ(bm.free_blocks(), 2);
  // Tenant 1 cannot take its full quota right now — reclaim target exists.
  EXPECT_FALSE(bm.can_allocate(5));
  bm.release(borrowed, 0);
  EXPECT_EQ(bm.over_quota_blocks(0), 0);
  EXPECT_EQ(bm.tenant_used_blocks(0), 3);
  bm.acquire(t1, 5, /*tenant=*/1);
  EXPECT_EQ(bm.over_quota_blocks(1), 0);
  EXPECT_EQ(bm.free_blocks(), 0);
  bm.release(within, 0);
  bm.release(t1, 1);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(TenantQuota, OverFreeAndDuplicateQuotasThrow) {
  BlockManager bm(quota_cfg(8, {{0, 4}}));
  SequenceBlocks held;
  bm.acquire(held, 2, /*tenant=*/0);
  // Copying a handle copies ids but acquires no references; releasing the
  // copy on tenant 1's account (which holds nothing) must throw before
  // corrupting the per-tenant counters.
  SequenceBlocks wrong_tenant = held;
  EXPECT_THROW(bm.release(wrong_tenant, 1), Error);
  bm.release(held, 0);
  EXPECT_THROW(BlockManager(quota_cfg(8, {{0, 4}, {0, 2}})), Error);
  EXPECT_THROW(BlockManager(quota_cfg(8, {{0, -1}})), Error);
}

TEST(TenantSpecValidation, RejectsBadSpecs) {
  TenantSpec t;
  t.weight = 0.0;
  EXPECT_THROW(t.validate(), Error);
  t.weight = 1.0;
  t.kv_block_quota = -2;
  EXPECT_THROW(t.validate(), Error);
  t.kv_block_quota = kNoQuota;
  t.traffic_share = 0.0;
  EXPECT_THROW(t.validate(), Error);
  t.traffic_share = 1.0;
  t.validate();  // default-ish spec is fine
}

// ---------------------------------------------------------- tenant mixes

TEST(TenantMix, AssignmentLeavesBaseTraceBitIdentical) {
  WorkloadConfig w;
  w.shape = WorkloadShape::kShareGpt;
  w.qps = 6.0;
  w.duration_s = 40.0;
  const auto base = generate_trace(w);
  w.tenant_shares = {0.2, 0.3, 0.5};
  const auto mixed = generate_trace(w);
  ASSERT_EQ(base.size(), mixed.size());
  bool multi_tenant = false;
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].arrival_s, mixed[i].arrival_s);
    EXPECT_EQ(base[i].input_tokens, mixed[i].input_tokens);
    EXPECT_EQ(base[i].output_tokens, mixed[i].output_tokens);
    EXPECT_EQ(base[i].tenant_id, 0);
    EXPECT_GE(mixed[i].tenant_id, 0);
    EXPECT_LT(mixed[i].tenant_id, 3);
    multi_tenant |= mixed[i].tenant_id != 0;
  }
  EXPECT_TRUE(multi_tenant);
  // Same seed -> same assignment; mixes are reproducible.
  const auto again = generate_trace(w);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed[i].tenant_id, again[i].tenant_id);
  }
  w.tenant_shares = {1.0, -0.5};
  EXPECT_THROW(generate_trace(w), Error);
}

// ------------------------------------------------------------------- wfq

EngineConfig a6000_marlin() {
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::rtxa6000();
  cfg.format = WeightFormat::kMarlin;
  return cfg;
}

TEST(WeightedFairQueuing, NameRoundTripsAndValidates) {
  EXPECT_EQ(policy_by_name("wfq"), SchedPolicy::kWeightedFair);
  EXPECT_STREQ(to_string(SchedPolicy::kWeightedFair), "wfq");
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.tenants = {TenantSpec{}, TenantSpec{}};  // duplicate id 0
  EXPECT_THROW(Scheduler(engine, cfg), Error);
}

TEST(WeightedFairQueuing, HigherTierAndWeightWinAdmission) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 1;  // pure queueing: admission order == service order
  TenantSpec fast;
  fast.id = 0;
  fast.tier = 0;
  fast.weight = 4.0;
  TenantSpec slow;
  slow.id = 1;
  slow.tier = 1;
  slow.weight = 1.0;
  cfg.tenants = {fast, slow};
  const Scheduler s(engine, cfg);
  // Tenant 1's request arrives *first*; with everything else equal the
  // tier-0 tenant still overtakes at the admission point.
  std::vector<TraceRequest> trace{
      {0.0, 64, 8, 1}, {0.0, 64, 8, 0}, {0.0, 64, 8, 1}, {0.0, 64, 8, 0}};
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_LT(stats.requests[1].first_token_s, stats.requests[0].first_token_s);
  EXPECT_LT(stats.requests[3].first_token_s, stats.requests[2].first_token_s);
  EXPECT_EQ(stats.metrics.completed, 4);
}

TEST(WeightedFairQueuing, ServiceDebtBalancesTokenShares) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 2;
  TenantSpec heavy;
  heavy.id = 0;
  heavy.weight = 3.0;
  TenantSpec light;
  light.id = 1;
  light.weight = 1.0;
  cfg.tenants = {heavy, light};
  const Scheduler s(engine, cfg);
  // Alternating arrivals, same shapes: the weight-3 tenant should finish
  // its work no later than the weight-1 tenant on average.
  std::vector<TraceRequest> trace;
  for (index_t i = 0; i < 12; ++i) {
    trace.push_back({0.0, 32, 16, i % 2});
  }
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  const auto tenants = per_tenant_metrics(stats);
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].completed + tenants[1].completed, 12);
  EXPECT_LE(tenants[0].mean_ttft_ms, tenants[1].mean_ttft_ms);
}

TEST(WeightedFairQueuing, AgingIsStarvationProof) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 1;
  // Nine tiers of 8192 tokens against aging at 256 tokens/s: the tier-9
  // request outranks a fresh tier-0 one only after ~288 s of waiting. The
  // vip stream keeps the one batch slot busy for longer than that, and its
  // large weight keeps its service debt near 0, so only aging can lift the
  // tier-9 request over it. Prefill-bound requests keep the step count low.
  TenantSpec vip;
  vip.id = 0;
  vip.tier = 0;
  vip.weight = 1e6;
  TenantSpec dirt;
  dirt.id = 1;
  dirt.tier = 9;
  cfg.tenants = {vip, dirt};
  const Scheduler s(engine, cfg);
  std::vector<TraceRequest> trace;
  trace.push_back({0.0, 2048, 1, 1});  // the starvation candidate
  // Each vip prefill takes ~0.24 s and one arrives every 0.2 s until 320 s.
  for (index_t i = 0; i < 1600; ++i) {
    trace.push_back({static_cast<double>(i) * 0.2, 2048, 1, 0});
  }
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_EQ(stats.metrics.completed, 1601);
  // It cannot be the last to finish: aging lifts it over the vip stream.
  index_t later = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (stats.requests[i].finish_s > stats.requests[0].finish_s) ++later;
  }
  EXPECT_GT(later, 0);
}

TEST(WeightedFairQueuing, ReclaimPreemptsOverQuotaBorrower) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.blocks.num_blocks = 8;  // 128 KV tokens
  cfg.blocks.watermark = 0.0;
  TenantSpec hog;  // borrow-prone: tiny quota, long outputs
  hog.id = 0;
  hog.kv_block_quota = 2;
  TenantSpec guest;
  guest.id = 1;
  guest.kv_block_quota = 4;
  cfg.tenants = {hog, guest};
  const Scheduler s(engine, cfg);
  // Tenant 0 fills the whole cache while alone (borrowing past quota 2),
  // then tenant 1 arrives: its admission must reclaim via preemption
  // instead of waiting for tenant 0 to finish.
  std::vector<TraceRequest> trace{
      {0.0, 48, 60, 0}, {0.0, 48, 60, 0},  // 3 blocks each, growing
      {0.2, 48, 8, 1}};
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_GT(stats.preemptions, 0);
  EXPECT_EQ(stats.metrics.completed, 3);
  // The reclaim victim is a tenant-0 sequence (tenant 1 never preempted).
  EXPECT_EQ(stats.requests[2].preemptions, 0);
  EXPECT_GT(stats.requests[0].preemptions + stats.requests[1].preemptions,
            0);
}

TEST(WeightedFairQueuing, InfeasibleReclaimPreemptsNobody) {
  // The blocked tenant is within quota, but the cache is held by an
  // *unquoted* tenant — nothing is reclaimable, so reclaim must be a
  // no-op (a partial preemption would waste the victim's KV recompute
  // without admitting anyone) and the claimant simply waits.
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.blocks.num_blocks = 8;
  cfg.blocks.watermark = 0.0;
  TenantSpec guest;
  guest.id = 1;
  guest.kv_block_quota = 4;
  cfg.tenants = {guest};  // tenant 0 stays unquoted
  const Scheduler s(engine, cfg);
  // Each hog peaks at 48 + 8 - 1 = 55 tokens = 4 blocks: together they
  // fill the budget exactly, with no growth shortage of their own.
  const std::vector<TraceRequest> trace{
      {0.0, 48, 8, 0}, {0.0, 48, 8, 0},
      {0.1, 48, 8, 1}};  // within quota 4, must wait
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_EQ(stats.preemptions, 0);
  EXPECT_EQ(stats.metrics.completed, 3);
  // The guest was admitted only after capacity freed up naturally.
  EXPECT_GT(stats.requests[2].first_token_s, stats.requests[0].arrival_s);
}

/// Prices steps with an Engine and checks every decode price's inputs
/// against the double formula over the replica's running set.
class ContextCheckingModel : public StepModel {
 public:
  explicit ContextCheckingModel(const Engine& engine) : engine_(engine) {}
  void watch(const ReplicaState* s, const std::vector<Request>* requests) {
    s_ = s;
    requests_ = requests;
  }
  [[nodiscard]] index_t decode_calls() const { return decode_calls_; }

  double decode_step_seconds(index_t batch, double avg_context) const override {
    double ctx_sum = 0.0;
    index_t expected_batch = 0;
    for (const std::size_t id : s_->running) {
      const Request& q = (*requests_)[id];
      expected_batch += q.num_sequences;
      ctx_sum += static_cast<double>(q.num_sequences) *
                 (static_cast<double>(q.prompt_tokens) +
                  static_cast<double>(s_->generated(q)));
    }
    EXPECT_EQ(batch, expected_batch) << "decode step " << decode_calls_;
    EXPECT_EQ(avg_context, ctx_sum / static_cast<double>(expected_batch))
        << "decode step " << decode_calls_;
    ++decode_calls_;
    return engine_.decode_step_seconds(batch, avg_context);
  }
  double prefill_seconds(index_t batch, index_t prompt_tokens) const override {
    return engine_.prefill_seconds(batch, prompt_tokens);
  }
  double verify_step_seconds(index_t batch, double avg_context,
                             index_t depth) const override {
    return engine_.verify_step_seconds(batch, avg_context, depth);
  }

 private:
  const Engine& engine_;
  const ReplicaState* s_ = nullptr;
  const std::vector<Request>* requests_ = nullptr;
  mutable index_t decode_calls_ = 0;
};

TEST(WeightedFairQueuing, GrowthPreemptionLeavesThePricedContextExact) {
  // Two n=2 requests of 24-token prompts on a 5-block cache. Tenant 0
  // (quota 1) is admitted first and over quota. At the first decode step
  // each request copies its shared half-full prompt block: tenant 0's
  // copy takes the last free block, so tenant 1's growth fails and
  // preempts tenant 0 — a request the fused growth pass already summed.
  const Engine engine(a6000_marlin());
  ContextCheckingModel model(engine);
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 4;
  cfg.blocks.num_blocks = 5;
  cfg.blocks.watermark = 0.0;
  TenantSpec hog;
  hog.id = 0;
  hog.kv_block_quota = 1;
  TenantSpec guest;
  guest.id = 1;
  cfg.tenants = {hog, guest};
  const Scheduler sched(model, cfg);

  std::vector<Request> requests;
  for (index_t t = 0; t < 2; ++t) {
    requests.emplace_back(t, 0.0, 24, 16, t).num_sequences = 2;
  }
  ReplicaState s = sched.make_replica_state();
  model.watch(&s, &requests);
  for (std::size_t i = 0; i < requests.size(); ++i) s.queue.push_back(i);
  while (s.busy()) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  EXPECT_GT(model.decode_calls(), 0);
  EXPECT_GT(requests[0].preemptions, 0);  // the summed victim
  EXPECT_EQ(requests[1].preemptions, 0);
  EXPECT_EQ(requests[0].generated, 16);
  EXPECT_EQ(requests[1].generated, 16);
  EXPECT_EQ(s.bm.used_blocks(), 0);
}

TEST(WeightedFairQueuing, SingleTenantMatchesFcfsStructure) {
  // With one neutral tenant and no quotas, wfq degenerates to FCFS: same
  // completions, same step counts, same preemption count.
  const Engine engine(a6000_marlin());
  ServingConfig sc;
  sc.qps = 8.0;
  sc.duration_s = 15.0;
  sc.kv_blocks = 128;
  const auto fcfs = simulate_cluster_detailed(engine, sc).sched;
  sc.policy = SchedPolicy::kWeightedFair;
  const auto wfq = simulate_cluster_detailed(engine, sc).sched;
  EXPECT_EQ(fcfs.metrics.completed, wfq.metrics.completed);
  EXPECT_EQ(fcfs.decode_steps, wfq.decode_steps);
  EXPECT_EQ(fcfs.prefill_steps, wfq.prefill_steps);
  EXPECT_EQ(fcfs.metrics.mean_tpot_ms, wfq.metrics.mean_tpot_ms);
}

TEST(WeightedFairQueuing, KeysThatRoundToOneDoubleAdmitInQueueOrder) {
  // At a late clock the aging credits of two close arrivals round to one
  // double, so their keys tie although the first request waited longer.
  // The admission sort is stable: a tie keeps queue order, which here puts
  // the later arrival first.
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 1;
  const Scheduler sched(engine, cfg);
  const double now = 1e9;
  const double early = 1.0;
  const double late = 1.0 + 1e-8;
  ASSERT_LT(early, late);
  ASSERT_EQ(256.0 * (now - early), 256.0 * (now - late));

  std::vector<Request> requests;
  requests.emplace_back(0, late, 64, 8);
  requests.emplace_back(1, early, 64, 8);
  ReplicaState s = sched.make_replica_state();
  s.now = now;
  s.queue = {0, 1};
  sched.admit(s, requests);
  ASSERT_EQ(s.prefilling.size(), 1u);
  EXPECT_EQ(s.prefilling[0], 0u);
  ASSERT_EQ(s.queue.size(), 1u);
  EXPECT_EQ(s.queue[0], 1u);
}

TEST(WeightedFairQueuing, UnconfiguredTenantIsServedNeutrally) {
  // A fresh replica needs no tenant registration: tenant 7 is not in the
  // config, so it gets weight 1 and tier 0 and overtakes the configured
  // tier-1 tenant; each tenant's debt enters on its first service.
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 1;  // admission order == service order
  TenantSpec known;
  known.id = 0;
  known.weight = 4.0;
  known.tier = 1;
  cfg.tenants = {known};
  const Scheduler sched(engine, cfg);

  std::vector<Request> requests;
  requests.emplace_back(0, 0.0, 64, 8, /*tenant_id=*/0);
  requests.emplace_back(1, 0.0, 32, 6, /*tenant_id=*/7);
  ReplicaState s = sched.make_replica_state();
  s.queue = {0, 1};
  EXPECT_TRUE(s.service.empty());
  while (s.busy()) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  EXPECT_LT(requests[1].finish_s, requests[0].first_token_s);
  // Served tokens: the prompt at prefill, then one per decode step after
  // the prefill's first token. The debt divides them by the weight.
  ASSERT_EQ(s.service.size(), 8u);
  EXPECT_EQ(static_cast<double>(s.served_tokens(7)), 32.0 + 5.0);
  EXPECT_EQ(static_cast<double>(s.served_tokens(0)) / sched.tenant(0).weight,
            (64.0 + 7.0) / 4.0);
  const TenantSpec& neutral = sched.tenant(7);
  EXPECT_EQ(neutral.weight, 1.0);
  EXPECT_EQ(neutral.tier, 0);
  EXPECT_EQ(neutral.kv_block_quota, kNoQuota);
  EXPECT_EQ(sched.tenant(0).weight, 4.0);
}

TEST(WeightedFairQueuing, DebtIsServedTokensOverWeightAfterManySteps) {
  // One decode step at a time, tenant 0 (weight 3) is served 64 + 998 =
  // 1062 tokens and tenant 1 (weight 1) 64 + 290 = 354. A running sum of
  // 1/3 per step rounds away from 1062 / 3; the debt is the integer count
  // divided once, so both debts are exactly 354, and two probes arriving
  // together tie: admission takes whichever is queued first.
  double running_sum = 64.0 / 3.0;
  for (int step = 0; step < 998; ++step) running_sum += 1.0 / 3.0;
  ASSERT_NE(running_sum, 354.0);

  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kWeightedFair;
  cfg.max_batch = 1;
  TenantSpec thirds;
  thirds.id = 0;
  thirds.weight = 3.0;
  TenantSpec whole;
  whole.id = 1;
  cfg.tenants = {thirds, whole};
  const Scheduler sched(engine, cfg);
  for (const bool thirds_first : {true, false}) {
    SCOPED_TRACE(thirds_first ? "weight-3 probe first" : "weight-1 first");
    std::vector<Request> requests;
    requests.emplace_back(0, 0.0, 64, 999, /*tenant_id=*/0);
    requests.emplace_back(1, 0.0, 64, 291, /*tenant_id=*/1);
    ReplicaState s = sched.make_replica_state();
    s.queue = {0, 1};
    while (s.busy()) {
      sched.admit(s, requests);
      sched.step(s, requests);
    }
    ASSERT_EQ(s.served_tokens(0), 1062);
    ASSERT_EQ(s.served_tokens(1), 354);
    requests.emplace_back(2, s.now, 16, 4, /*tenant_id=*/0);
    requests.emplace_back(3, s.now, 16, 4, /*tenant_id=*/1);
    const std::size_t head = thirds_first ? 2 : 3;
    s.queue = {head, 5 - head};
    sched.admit(s, requests);
    ASSERT_EQ(s.prefilling.size(), 1u);
    EXPECT_EQ(s.prefilling[0], head);
  }
}

// ---------------------------------------------------- speculative decoding

TEST(Speculation, ExpectedTokensPerRound) {
  SpeculationConfig spec;
  spec.depth = 4;
  spec.acceptance = 0.8;
  EXPECT_NEAR(spec.expected_tokens_per_round(),
              1.0 + 0.8 + 0.64 + 0.512 + 0.4096, 1e-12);
  spec.acceptance = 1.0;
  EXPECT_DOUBLE_EQ(spec.expected_tokens_per_round(), 5.0);
  spec.acceptance = 0.0;
  EXPECT_DOUBLE_EQ(spec.expected_tokens_per_round(), 1.0);
  spec.acceptance = 1.5;
  EXPECT_THROW(spec.validate(), Error);
  spec.acceptance = 0.7;
  spec.depth = -1;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(Speculation, VerifyStepDepthZeroEqualsDecodeStep) {
  const Engine engine(a6000_marlin());
  EXPECT_EQ(engine.verify_step_seconds(8, 256.0, 0),
            engine.decode_step_seconds(8, 256.0));
  // Verifying depth d costs more than one decode step but less than
  // d + 1 of them — the whole point of batched verification.
  const double decode = engine.decode_step_seconds(8, 256.0);
  const double verify = engine.verify_step_seconds(8, 256.0, 4);
  EXPECT_GT(verify, decode);
  EXPECT_LT(verify, 5.0 * decode);
}

TEST(Speculation, ParallelVerifyComposesAcrossRankGrid) {
  EngineConfig cfg = a6000_marlin();
  cfg.model = llama2_13b();
  cfg.gpu = gpusim::a100_80g();
  const Engine engine(cfg);
  const parallel::ParallelEngine trivial(engine, {1, 1, 0});
  EXPECT_EQ(trivial.verify_step_seconds(8, 256.0, 4),
            engine.verify_step_seconds(8, 256.0, 4));
  const parallel::ParallelEngine grid(engine, {2, 2, 0});
  EXPECT_EQ(grid.verify_step_seconds(8, 256.0, 0),
            grid.decode_step_seconds(8, 256.0));
  const double decode = grid.decode_step_seconds(8, 256.0);
  const double verify = grid.verify_step_seconds(8, 256.0, 4);
  EXPECT_GT(verify, decode);
  EXPECT_LT(verify, 5.0 * decode);
}

TEST(Speculation, RequiresDraftModelAndCommitsFasterSchedule) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.speculation.depth = 4;
  EXPECT_THROW(Scheduler(engine, cfg), Error);  // no draft model

  ServingConfig sc;
  sc.qps = 4.0;
  sc.duration_s = 20.0;
  const auto plain = simulate_cluster_detailed(engine, sc).sched;
  sc.speculation.depth = 4;
  sc.speculation.acceptance = 0.8;
  const auto spec = simulate_cluster_detailed(engine, sc).sched;

  EXPECT_EQ(plain.spec_rounds, 0);
  EXPECT_GT(spec.spec_rounds, 0);
  EXPECT_GT(spec.spec_draft_tokens, 0);
  EXPECT_EQ(spec.metrics.completed, plain.metrics.completed);
  // Fewer engine rounds deliver the same tokens...
  EXPECT_LT(spec.decode_steps, plain.decode_steps);
  // ...at better TPOT (depth-4 verify + draft beats 3.36 decode steps).
  EXPECT_LT(spec.metrics.mean_tpot_ms, plain.metrics.mean_tpot_ms);
  // Long-run commit rate tracks the expected value.
  const double per_round =
      static_cast<double>(spec.spec_committed_tokens) /
      static_cast<double>(spec.spec_draft_tokens) * 4.0;
  EXPECT_NEAR(per_round, 3.3616, 0.2);
  for (const auto& r : spec.requests) {
    EXPECT_EQ(r.generated, r.output_tokens);  // never over-committed
  }
}

TEST(Speculation, ComposesWithPreemptionAndChunkedPrefill) {
  const Engine engine(a6000_marlin());
  ServingConfig sc;
  sc.qps = 8.0;
  sc.duration_s = 15.0;
  sc.kv_blocks = 96;  // tight: forces preemption under speculation
  sc.prefill_chunk_tokens = 16;
  sc.speculation.depth = 3;
  sc.speculation.acceptance = 0.7;
  const auto stats = simulate_cluster_detailed(engine, sc).sched;
  EXPECT_GT(stats.preemptions, 0);
  EXPECT_GT(stats.spec_rounds, 0);
  EXPECT_LE(stats.peak_kv_blocks, 96);
  for (const auto& r : stats.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_EQ(r.generated, r.output_tokens);
  }
}

TEST(PerTenantMetrics, SplitsByTenant) {
  const Engine engine(a6000_marlin());
  ServingConfig sc;
  sc.qps = 6.0;
  sc.duration_s = 20.0;
  sc.policy = SchedPolicy::kWeightedFair;
  sc.tenants = {TenantSpec{0, "a", 1.0, 0, kNoQuota, 1.0},
                TenantSpec{1, "b", 1.0, 0, kNoQuota, 1.0}};
  const auto stats = simulate_cluster_detailed(engine, sc).sched;
  const auto tenants = per_tenant_metrics(stats);
  ASSERT_EQ(tenants.size(), 2u);
  index_t completed = 0, tokens = 0;
  for (const auto& t : tenants) {
    completed += t.completed;
    tokens += t.output_tokens;
    EXPECT_GT(t.completed, 0);
  }
  EXPECT_EQ(completed, stats.metrics.completed);
  index_t generated = 0;
  for (const auto& r : stats.requests) generated += r.generated;
  EXPECT_EQ(tokens, generated);
}

}  // namespace
}  // namespace marlin::serve::sched
