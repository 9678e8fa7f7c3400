// Serving scheduler subsystem: request lifecycle, paged KV block manager
// invariants, workload-trace determinism, preemption/recompute round
// trips, policy ordering, and the bit-identical-across-threads contract.

#include <gtest/gtest.h>

#include <limits>

#include "serve/server_sim.hpp"
#include "util/rng.hpp"

namespace marlin::serve::sched {
namespace {

// ---------------------------------------------------------------- request

TEST(RequestLifecycle, HappyPathAndRecomputeLoop) {
  Request r(0, 0.0, 64, 16);
  EXPECT_EQ(r.state, RequestState::kQueued);
  r.set_state(RequestState::kPrefilling);
  r.set_state(RequestState::kRunning);
  r.generated = 5;
  r.set_state(RequestState::kPreempted);
  EXPECT_EQ(r.prefill_target(), 64 + 5);  // recompute covers generated
  r.set_state(RequestState::kPrefilling);
  r.set_state(RequestState::kRunning);
  r.set_state(RequestState::kFinished);
}

TEST(RequestLifecycle, IllegalTransitionsThrow) {
  Request r(0, 0.0, 64, 16);
  EXPECT_THROW(r.set_state(RequestState::kRunning), Error);    // skip prefill
  EXPECT_THROW(r.set_state(RequestState::kPreempted), Error);  // from queued
  r.set_state(RequestState::kFinished);  // rejection path is legal
  EXPECT_THROW(r.set_state(RequestState::kPrefilling), Error);
  EXPECT_FALSE(transition_allowed(RequestState::kPrefilling,
                                  RequestState::kPreempted));
}

// ---------------------------------------------------------- block manager

BlockManagerConfig blocks_cfg(index_t num_blocks, double watermark = 0.0) {
  BlockManagerConfig cfg;
  cfg.block_size = 16;
  cfg.num_blocks = num_blocks;
  cfg.watermark = watermark;
  return cfg;
}

TEST(BlockManager, AcquireReleaseAndCounts) {
  BlockManager bm(blocks_cfg(8));
  EXPECT_EQ(bm.blocks_for_tokens(1), 1);
  EXPECT_EQ(bm.blocks_for_tokens(16), 1);
  EXPECT_EQ(bm.blocks_for_tokens(17), 2);
  SequenceBlocks a, b;
  bm.acquire(a, 3);
  bm.acquire(b, 5);
  EXPECT_EQ(bm.used_blocks(), 8);
  EXPECT_EQ(bm.free_blocks(), 0);
  EXPECT_FALSE(bm.can_allocate(1));
  SequenceBlocks c;
  EXPECT_THROW(bm.acquire(c, 1), Error);
  bm.release(a);
  EXPECT_TRUE(a.empty());  // holdings cleared on release
  EXPECT_EQ(bm.free_blocks(), 3);
  EXPECT_EQ(bm.peak_used_blocks(), 8);
  bm.release(b);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(BlockManager, DoubleReleaseAndForeignIdsThrow) {
  BlockManager bm(blocks_cfg(4));
  SequenceBlocks ids;
  bm.acquire(ids, 2);
  SequenceBlocks stale = ids;  // copies ids, acquires no references
  bm.release(ids);
  EXPECT_THROW(bm.release(stale), Error);  // double-release
}

TEST(BlockManager, WatermarkGatesAdmissionButNotGrowth) {
  // 10 blocks, 20% watermark => 2 blocks stay reserved at admission.
  BlockManager bm(blocks_cfg(10, 0.2));
  EXPECT_EQ(bm.watermark_blocks(), 2);
  EXPECT_TRUE(bm.can_admit(8 * 16));    // 8 + 2 == 10
  EXPECT_FALSE(bm.can_admit(9 * 16));   // would dip into the reserve
  SequenceBlocks held;
  bm.acquire(held, 8);
  EXPECT_FALSE(bm.can_admit(1));        // 1 + 2 > 2 free
  // Growth may use the reserve (the whole 8 * 16 tokens are covered).
  EXPECT_TRUE(bm.grow_to(held, 10 * 16, 8 * 16));
  EXPECT_EQ(bm.free_blocks(), 0);
  EXPECT_FALSE(bm.grow_to(held, 11 * 16, 10 * 16));
  EXPECT_EQ(held.count(), 10);  // failed growth leaves holdings untouched
  bm.release(held);
}

TEST(BlockManager, UnlimitedModeTracksButNeverFails) {
  BlockManager bm(blocks_cfg(0));
  EXPECT_TRUE(bm.unlimited());
  EXPECT_TRUE(bm.can_admit(1 << 20));
  SequenceBlocks a, b;
  bm.acquire(a, 1000);
  EXPECT_EQ(bm.used_blocks(), 1000);
  bm.release(a);
  bm.acquire(b, 10);
  EXPECT_EQ(bm.peak_used_blocks(), 1000);
  bm.release(b);
}

TEST(BlockManager, DecodeGrowthScansOncePerBlockCrossing) {
  // One sequence decoding 160 tokens at 16 tokens per block: only the
  // writes that open a new block (tokens 1, 17, ..., 145) get past the
  // writable mark.
  BlockManager bm(blocks_cfg(16));
  SequenceBlocks seq;
  for (index_t tokens = 1; tokens <= 160; ++tokens) {
    ASSERT_TRUE(bm.grow_to(seq, tokens, tokens - 1));
  }
  EXPECT_EQ(bm.counters().kv_grow_scans, 10);
  EXPECT_EQ(seq.count(), 10);
  EXPECT_EQ(bm.counters().kv_blocks_allocated, 10);
  // Any other mutation clears the mark: the next write scans again.
  bm.publish(seq);
  ASSERT_TRUE(bm.grow_to(seq, 160, 159));
  EXPECT_EQ(bm.counters().kv_grow_scans, 11);
  bm.release(seq);
}

TEST(BlockBudget, DerivedFromHbmWeightsAndFormat) {
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::rtxa6000();
  cfg.format = WeightFormat::kMarlin;
  const Engine marlin(cfg);
  cfg.format = WeightFormat::kFp16;
  const Engine fp16(cfg);
  const index_t bm = derive_kv_block_budget(marlin, 16);
  const index_t bf = derive_kv_block_budget(fp16, 16);
  EXPECT_GT(bm, 0);
  // Quantized weights leave more HBM for KV blocks.
  EXPECT_GT(bm, bf);
  // Smaller blocks => proportionally more of them.
  EXPECT_NEAR(static_cast<double>(derive_kv_block_budget(marlin, 8)),
              2.0 * static_cast<double>(bm), 2.0);
  // 70B in FP16 does not fit on a 24 GB A10 at all.
  cfg.model = llama2_70b();
  cfg.gpu = gpusim::a10();
  EXPECT_THROW((void)derive_kv_block_budget(Engine(cfg), 16), Error);
}

// -------------------------------------------------------------- workloads

TEST(Workload, SeedReproducesTraceExactly) {
  WorkloadConfig w;
  w.shape = WorkloadShape::kShareGpt;
  w.qps = 5.0;
  w.duration_s = 30.0;
  const auto t1 = generate_trace(w);
  const auto t2 = generate_trace(w);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].arrival_s, t2[i].arrival_s);
    EXPECT_EQ(t1[i].input_tokens, t2[i].input_tokens);
    EXPECT_EQ(t1[i].output_tokens, t2[i].output_tokens);
  }
  w.seed = 7;
  const auto t3 = generate_trace(w);
  EXPECT_NE(t1.front().arrival_s, t3.front().arrival_s);
}

TEST(Workload, NonFiniteRateOrWindowIsRejected) {
  // Either would grow the trace until memory runs out.
  WorkloadConfig w;
  w.qps = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)generate_trace(w), Error);
  w.qps = 1.0;
  w.duration_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)generate_trace(w), Error);
}

TEST(Workload, PoissonMatchesTheLegacyArrivalProcess) {
  // The pre-subsystem simulator drew `t += exp(qps)` from Rng(seed); the
  // fig15/fig16 goldens pin that stream down.
  WorkloadConfig w;
  w.qps = 2.5;
  w.duration_s = 20.0;
  w.seed = 42;
  const auto trace = generate_trace(w);
  Rng rng(42);
  double t = 0.0;
  std::size_t i = 0;
  while (true) {
    t += rng.exponential(2.5);
    if (t >= 20.0) break;
    ASSERT_LT(i, trace.size());
    EXPECT_EQ(trace[i].arrival_s, t);
    EXPECT_EQ(trace[i].input_tokens, 64);
    EXPECT_EQ(trace[i].output_tokens, 64);
    ++i;
  }
  EXPECT_EQ(i, trace.size());
}

TEST(Workload, ShapesAreOrderedAndWithinBounds) {
  for (const auto shape : {WorkloadShape::kPoisson, WorkloadShape::kBursty,
                           WorkloadShape::kShareGpt}) {
    WorkloadConfig w;
    w.shape = shape;
    w.qps = 10.0;
    w.duration_s = 60.0;
    const auto trace = generate_trace(w);
    ASSERT_FALSE(trace.empty()) << to_string(shape);
    double prev = 0.0;
    for (const auto& r : trace) {
      EXPECT_GE(r.arrival_s, prev);
      EXPECT_LT(r.arrival_s, w.duration_s);
      EXPECT_GE(r.input_tokens, kShareGptMinTokens);
      EXPECT_LE(r.input_tokens, kShareGptMaxInputTokens);
      EXPECT_GE(r.output_tokens, kShareGptMinTokens);
      EXPECT_LE(r.output_tokens, kShareGptMaxOutputTokens);
      prev = r.arrival_s;
    }
  }
}

TEST(Workload, BurstyClumpsArrivals) {
  WorkloadConfig w;
  w.qps = 10.0;
  w.duration_s = 120.0;
  const auto poisson = generate_trace(w);
  w.shape = WorkloadShape::kBursty;
  const auto bursty = generate_trace(w);
  // Same mean rate (loosely), but far spikier inter-arrival gaps.
  const auto max_gap = [](const std::vector<TraceRequest>& t) {
    double g = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      g = std::max(g, t[i].arrival_s - t[i - 1].arrival_s);
    }
    return g;
  };
  EXPECT_GT(static_cast<double>(bursty.size()),
            0.4 * static_cast<double>(poisson.size()));
  EXPECT_GT(max_gap(bursty), 2.0 * max_gap(poisson));
  EXPECT_THROW(workload_by_name("zipf"), Error);
}

// -------------------------------------------------------------- scheduler

EngineConfig a6000_marlin() {
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::rtxa6000();
  cfg.format = WeightFormat::kMarlin;
  return cfg;
}

ServingConfig overload_cfg() {
  ServingConfig sc;
  sc.qps = 8.0;
  sc.duration_s = 20.0;
  return sc;
}

TEST(Scheduler, PreemptionRecomputeRoundTrip) {
  const Engine engine(a6000_marlin());
  ServingConfig sc = overload_cfg();
  const auto unlimited = simulate_cluster_detailed(engine, sc).sched;
  sc.kv_blocks = 96;  // ~1.5k KV tokens at block 16: heavy pressure
  const auto tight = simulate_cluster_detailed(engine, sc).sched;

  EXPECT_EQ(tight.rejected, 0);
  EXPECT_GT(tight.preemptions, 0);
  EXPECT_LE(tight.peak_kv_blocks, 96);
  // Every request still completes — preempted ones recompute and resume.
  EXPECT_EQ(tight.metrics.completed, unlimited.metrics.completed);
  for (const auto& r : tight.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_GE(r.finish_s, 0.0);
    EXPECT_EQ(r.generated, r.output_tokens);
  }
  // Admission queueing under the tight budget can only hurt TTFT. (TPOT
  // is *not* monotone: capping the batch makes each decode step faster.)
  EXPECT_GE(tight.metrics.mean_ttft_ms, unlimited.metrics.mean_ttft_ms);
  EXPECT_EQ(unlimited.preemptions, 0);
}

TEST(Scheduler, ChunkedPrefillTakesMoreSmallerSteps) {
  const Engine engine(a6000_marlin());
  ServingConfig sc = overload_cfg();
  const auto whole = simulate_cluster_detailed(engine, sc).sched;
  sc.prefill_chunk_tokens = 16;  // 64-token prompts => 4 chunks
  const auto chunked = simulate_cluster_detailed(engine, sc).sched;
  EXPECT_GT(chunked.prefill_steps, whole.prefill_steps);
  EXPECT_EQ(chunked.metrics.completed, whole.metrics.completed);
  for (const auto& r : chunked.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
  }
}

TEST(Scheduler, ImpossibleRequestIsRejectedNotStarved) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.blocks.num_blocks = 4;  // 64 KV tokens total
  cfg.blocks.watermark = 0.0;
  const Scheduler s(engine, cfg);
  // First request can never fit (footprint 95 tokens); the second can;
  // the third holds exactly 48 + 17 - 1 = 64 tokens at completion (the
  // final output token never writes KV) and must NOT be rejected.
  const std::vector<TraceRequest> trace{
      {0.0, 64, 32}, {0.1, 16, 8}, {0.2, 48, 17}};
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_TRUE(stats.requests[0].rejected);
  EXPECT_EQ(stats.requests[0].state, RequestState::kFinished);
  EXPECT_LT(stats.requests[0].finish_s, 0.0);  // never produced a token
  EXPECT_EQ(stats.metrics.completed, 2);
  EXPECT_FALSE(stats.requests[1].rejected);
  EXPECT_FALSE(stats.requests[2].rejected);
  EXPECT_EQ(stats.requests[2].generated, 17);
  EXPECT_LE(stats.peak_kv_blocks, 4);
}

TEST(Scheduler, OneTokenOutputFinishesAtPrefill) {
  // The prefill emits the first output token, so a 1-token request is
  // complete when its prefill is: it must never enter a decode step (which
  // would emit a second token) and never fork its n>1 sequences.
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.blocks.num_blocks = 64;
  const Scheduler s(engine, cfg);
  std::vector<TraceRequest> trace{{0.0, 40, 1}, {0.0, 24, 1}};
  trace[1].num_sequences = 3;
  const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
  EXPECT_EQ(stats.metrics.completed, 2);
  EXPECT_EQ(stats.decode_steps, 0);
  EXPECT_EQ(stats.cow_forks, 0);
  EXPECT_EQ(stats.kv_blocks_freed, stats.kv_blocks_allocated);
  for (const Request& r : stats.requests) {
    EXPECT_EQ(r.generated, 1);
    EXPECT_EQ(r.finish_s, r.first_token_s);
    EXPECT_EQ(r.state, RequestState::kFinished);
  }
}

TEST(Scheduler, DecodeRoundsVisitRequestsOnlyAtTheirEvents) {
  // 32 plain requests of 256 output tokens decode together for 255
  // steps. A decode round visits a request when it joins the batch, when
  // its KV growth crosses into a new 16-token block and when it finishes:
  // at most 256 / 16 + 2 visits each, not one per step (32 x 255). WFQ
  // counts service per tenant, not per visit, so it has the same bound.
  const Engine engine(a6000_marlin());
  for (const SchedPolicy policy :
       {SchedPolicy::kFcfs, SchedPolicy::kWeightedFair}) {
    SCOPED_TRACE(to_string(policy));
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.max_batch = 32;
    cfg.blocks.block_size = 16;
    cfg.blocks.num_blocks = 1024;
    const Scheduler s(engine, cfg);
    const std::vector<TraceRequest> trace(32, TraceRequest{0.0, 64, 256});
    const auto stats = cluster::EventLoop(s, {}).run(trace).sched;
    EXPECT_EQ(stats.metrics.completed, 32);
    EXPECT_EQ(stats.preemptions, 0);
    EXPECT_EQ(stats.decode_steps, 255);
    EXPECT_GT(stats.decode_visits, 0);
    EXPECT_LE(stats.decode_visits, 32 * (256 / 16 + 2));
  }
}

TEST(SchedulerPolicy, ShortestJobOvertakesLongJobAtBatch1) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.max_batch = 1;  // pure queueing: admission order == service order
  // A long job and three short ones all arrive together (a later arrival
  // could not overtake an already-running job — admission is the only
  // reordering point).
  const std::vector<TraceRequest> trace{
      {0.0, 64, 64}, {0.0, 64, 4}, {0.0, 64, 4}, {0.0, 64, 4}};
  const Scheduler fcfs(engine, cfg);
  cfg.policy = SchedPolicy::kShortestJob;
  const Scheduler sjf(engine, cfg);
  const auto f = cluster::EventLoop(fcfs, {}).run(trace).sched;
  const auto s = cluster::EventLoop(sjf, {}).run(trace).sched;
  // FCFS serves in arrival order: the long job finishes first.
  EXPECT_LT(f.requests[0].finish_s, f.requests[1].finish_s);
  // SJF lets every short job jump the long one.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(s.requests[i].finish_s, s.requests[0].finish_s) << i;
  }
  // Same work either way, so the schedule makespan matches.
  EXPECT_EQ(f.metrics.completed, s.metrics.completed);
}

TEST(SchedulerPolicy, MaxUtilizationPacksSmallFootprintsFirst) {
  const Engine engine(a6000_marlin());
  SchedulerConfig cfg;
  cfg.blocks.num_blocks = 4;
  cfg.blocks.watermark = 0.0;
  // A (3 blocks) + B (1 block) fill the budget under FCFS, leaving C
  // queued; max-util admits the two 1-block requests alongside A... only
  // B and C fit first (footprints sort B, C, A), so A waits instead.
  const std::vector<TraceRequest> trace{
      {0.0, 48, 2}, {0.0, 16, 2}, {0.0, 16, 2}};
  const Scheduler fcfs(engine, cfg);
  const auto f = cluster::EventLoop(fcfs, {}).run(trace).sched;
  cfg.policy = SchedPolicy::kMaxUtilization;
  const Scheduler mu(engine, cfg);
  const auto m = cluster::EventLoop(mu, {}).run(trace).sched;
  // Under FCFS, C is the straggler; under max-util, A is.
  EXPECT_GT(f.requests[2].first_token_s, f.requests[1].first_token_s);
  EXPECT_GT(m.requests[0].first_token_s, m.requests[2].first_token_s);
  EXPECT_LT(m.requests[2].first_token_s, f.requests[2].first_token_s);
  EXPECT_EQ(f.metrics.completed, 3);
  EXPECT_EQ(m.metrics.completed, 3);
}

TEST(SchedulerPolicy, NamesRoundTrip) {
  for (const auto p : {SchedPolicy::kFcfs, SchedPolicy::kShortestJob,
                       SchedPolicy::kMaxUtilization}) {
    EXPECT_EQ(policy_by_name(to_string(p)), p);
  }
  EXPECT_THROW(policy_by_name("lifo"), Error);
}

TEST(Scheduler, FcfsUnlimitedMatchesLegacySimulateServing) {
  // The adapter defaults must stay on the goldens path: FCFS, unlimited
  // KV, unchunked prefill. Spot-check the fig15 (MARLIN, 1 QPS) cell
  // against the checked-in golden value.
  EngineConfig cfg;
  cfg.model = llama2_7b();
  cfg.gpu = gpusim::rtxa6000();
  cfg.format = WeightFormat::kMarlin;
  const Engine engine(cfg);
  ServingConfig sc;
  sc.qps = 1.0;
  sc.duration_s = 120.0;
  const auto m = simulate_cluster_detailed(engine, sc).sched.metrics;
  EXPECT_NEAR(m.mean_tpot_ms, 7.99, 0.005);  // goldens table, row MARLIN
  EXPECT_NEAR(m.mean_batch, 1.3, 0.05);
}

}  // namespace
}  // namespace marlin::serve::sched
