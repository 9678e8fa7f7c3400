// Cluster serving tier: single-replica EventLoop equivalence across
// placements, router placement determinism, replica add/drain
// lifecycle, SLO shed accounting, autoscaler round trips with no
// KV-block leaks, config validation, disaggregated prefill/decode pools (zero-cost-link
// differential equivalence, priced KV transfers, migration edge cases),
// the maintained least-loaded counter against a recount after every
// replica call, the event queue against a linear scan, and the time
// order it gives the loop (woken replicas, evaluations, landings).

#include <gtest/gtest.h>

#include "obs/serve_recorder.hpp"
#include "obs/trace.hpp"
#include "reference_event_loop.hpp"
#include "serve/cluster/event_queue.hpp"
#include "serve/server_sim.hpp"
#include "util/hash.hpp"

namespace marlin::serve::cluster {
namespace {

const Engine& test_engine() {
  static const Engine engine = [] {
    EngineConfig cfg;
    cfg.model = llama2_7b();
    cfg.gpu = gpusim::rtxa6000();
    cfg.format = WeightFormat::kMarlin;
    return Engine(cfg);
  }();
  return engine;
}

sched::SchedulerConfig sched_cfg(index_t kv_blocks) {
  sched::SchedulerConfig cfg;
  cfg.blocks.block_size = 16;
  cfg.blocks.num_blocks = kv_blocks;
  return cfg;
}

std::vector<sched::TraceRequest> make_trace(
    double qps, double duration_s,
    sched::WorkloadShape shape = sched::WorkloadShape::kPoisson,
    std::vector<double> tenant_shares = {}) {
  sched::WorkloadConfig w;
  w.shape = shape;
  w.qps = qps;
  w.duration_s = duration_s;
  w.tenant_shares = std::move(tenant_shares);
  return sched::generate_trace(w);
}

// Bitwise equality of everything the goldens depend on plus the full
// per-request outcome — "equivalent" here means equivalent to the double.
void expect_sched_equal(const sched::SchedStats& a,
                        const sched::SchedStats& b) {
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(static_cast<const sched::RunCounters&>(a),
            static_cast<const sched::RunCounters&>(b));
  EXPECT_EQ(a.peak_kv_blocks, b.peak_kv_blocks);
  EXPECT_EQ(a.sim_end_s, b.sim_end_s);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].first_token_s, b.requests[i].first_token_s);
    EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    EXPECT_EQ(a.requests[i].generated, b.requests[i].generated);
    EXPECT_EQ(a.requests[i].preemptions, b.requests[i].preemptions);
  }
}

// ------------------------------------------- single-replica equivalence

TEST(SingleReplicaEquivalence, EventLoopMatchesSchedulerRunAllPlacements) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  const auto trace = make_trace(6.0, 20.0);
  const sched::SchedStats base =
      EventLoop(sch, ClusterOptions{}).run(trace).sched;
  EXPECT_GT(base.metrics.completed, 0);
  // Placement cannot matter with one replica; every policy must reduce to
  // the default round-robin loop bit-for-bit.
  for (const auto placement :
       {Placement::kRoundRobin, Placement::kLeastLoaded,
        Placement::kSessionAffinity}) {
    ClusterOptions opts;
    opts.placement = placement;
    const ClusterStats cs = EventLoop(sch, opts).run(trace);
    expect_sched_equal(base, cs.sched);
    ASSERT_EQ(cs.replicas.size(), 1u);
    EXPECT_EQ(cs.replicas[0].routed,
              static_cast<index_t>(trace.size()));
    EXPECT_EQ(cs.replicas[0].leaked_kv_blocks, 0);
    EXPECT_EQ(cs.peak_replicas, 1);
    EXPECT_EQ(cs.replicas_added, 0);
    EXPECT_EQ(cs.replicas_drained, 0);
  }
}

TEST(SingleReplicaEquivalence, ServerSimPathsAgree) {
  ServingConfig sc;
  sc.qps = 4.0;
  sc.duration_s = 15.0;
  sc.kv_blocks = 96;
  const ClusterStats cs = simulate_cluster_detailed(test_engine(), sc);
  EXPECT_GT(cs.sched.metrics.completed, 0);
  // No SLO configured: the new accounting must stay inert.
  EXPECT_EQ(cs.sched.shed, 0);
  EXPECT_EQ(cs.sched.slo_ttft_violations, 0);
  EXPECT_EQ(cs.sched.slo_tpot_violations, 0);
  // Single-replica runs still stamp the placement.
  for (const auto& r : cs.sched.requests) EXPECT_EQ(r.replica, 0);
}

TEST(SingleReplicaEquivalence, RepeatRunsReproduceBitIdentically) {
  const sched::Scheduler sch(test_engine(), sched_cfg(64));
  const auto trace = make_trace(8.0, 10.0);
  const EventLoop loop(sch, ClusterOptions{});
  expect_sched_equal(loop.run(trace).sched, loop.run(trace).sched);
}

// ------------------------------------------------------------- placement

std::vector<sched::Request> some_requests(index_t n, index_t tenants = 1) {
  std::vector<sched::Request> requests;
  for (index_t i = 0; i < n; ++i) {
    requests.emplace_back(i, /*arrival_s=*/0.1 * static_cast<double>(i),
                          /*prompt_tokens=*/8, /*output_tokens=*/4,
                          /*tenant_id=*/i % tenants);
  }
  return requests;
}

TEST(RouterPlacement, RoundRobinRotatesOverRoutableInIdOrder) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  std::deque<Replica> fleet;
  for (index_t i = 0; i < 3; ++i) fleet.emplace_back(i, sch);
  auto requests = some_requests(8);
  Router router(Placement::kRoundRobin);
  for (const std::size_t expected : {0u, 1u, 2u, 0u, 1u}) {
    EXPECT_EQ(router.pick(requests[0], fleet), expected);
  }
  // A drained replica drops out of the rotation.
  fleet[1].begin_drain();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(router.pick(requests[0], fleet), 1u);
  }
}

TEST(RouterPlacement, LeastLoadedByOutstandingTokensTiesToLowestId) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  std::deque<Replica> fleet;
  for (index_t i = 0; i < 3; ++i) fleet.emplace_back(i, sch);
  auto requests = some_requests(4);
  Router router(Placement::kLeastLoaded);
  // All empty: tie goes to replica 0.
  EXPECT_EQ(router.pick(requests[3], fleet), 0u);
  // Each delivery adds 8 + 4 = 12 outstanding tokens.
  fleet[0].deliver(0, requests);
  EXPECT_EQ(fleet[0].outstanding_tokens(), 12);
  EXPECT_EQ(router.pick(requests[3], fleet), 1u);
  fleet[1].deliver(1, requests);
  EXPECT_EQ(router.pick(requests[3], fleet), 2u);
  fleet[2].deliver(2, requests);  // all tied again
  EXPECT_EQ(router.pick(requests[3], fleet), 0u);
}

TEST(RouterPlacement, SessionAffinityPinsTenantsViaMix64) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  std::deque<Replica> fleet;
  for (index_t i = 0; i < 3; ++i) fleet.emplace_back(i, sch);
  auto requests = some_requests(16, /*tenants=*/8);
  Router router(Placement::kSessionAffinity);
  std::vector<std::size_t> hit(3, 0);
  for (const auto& r : requests) {
    const std::size_t picked = router.pick(r, fleet);
    // The placement is a pure function of the tenant id and fleet size —
    // repeat picks (and the same tenant's later requests) pin to it.
    EXPECT_EQ(picked,
              util::mix64(static_cast<std::uint64_t>(r.tenant_id)) % 3u);
    EXPECT_EQ(router.pick(r, fleet), picked);
    ++hit[picked];
  }
  // 8 tenants over 3 replicas: the mix spreads them across the fleet.
  for (const std::size_t h : hit) EXPECT_GT(h, 0u);
}

TEST(RouterPlacement, Mix64IsAPinnedPlatformIndependentFunction) {
  // splitmix64 finalizer known-answer values — these may never change, or
  // session-affinity placements (and goldens) silently reshuffle.
  EXPECT_EQ(util::mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_NE(util::mix64(2), util::mix64(3));
}

TEST(RouterPlacement, NoRoutableReplicaThrows) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  std::deque<Replica> fleet;
  fleet.emplace_back(0, sch);
  auto requests = some_requests(1);
  fleet[0].begin_drain();
  Router router(Placement::kRoundRobin);
  EXPECT_THROW((void)router.pick(requests[0], fleet), Error);
}

// ------------------------------------------------------ replica lifecycle

TEST(ReplicaLifecycle, DrainRetireRoundTrip) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  Replica rep(0, sch);
  EXPECT_TRUE(rep.routable());
  EXPECT_FALSE(rep.busy());
  EXPECT_FALSE(rep.try_retire());  // active replicas never retire
  rep.begin_drain();
  EXPECT_EQ(rep.lifecycle(), ReplicaLifecycle::kDraining);
  EXPECT_FALSE(rep.routable());
  EXPECT_TRUE(rep.try_retire());  // idle + draining -> retired
  EXPECT_EQ(rep.lifecycle(), ReplicaLifecycle::kRetired);
  EXPECT_FALSE(rep.try_retire());
}

TEST(ReplicaLifecycle, DrainingReplicaFinishesHeldWorkButRefusesNew) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  Replica rep(0, sch);
  auto requests = some_requests(2);
  rep.deliver(0, requests);
  EXPECT_TRUE(rep.busy());
  rep.begin_drain();
  EXPECT_FALSE(rep.try_retire());  // still busy
  EXPECT_THROW(rep.deliver(1, requests), Error);
  while (rep.busy()) rep.tick(requests);
  EXPECT_EQ(requests[0].state, sched::RequestState::kFinished);
  EXPECT_GE(requests[0].finish_s, 0.0);
  EXPECT_TRUE(rep.try_retire());
  EXPECT_EQ(rep.state().bm.used_blocks(), 0);  // nothing leaked
}

TEST(ReplicaLifecycle, ClockNeverMovesBackwards) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  Replica rep(3, sch);
  rep.advance_to(5.0);
  rep.advance_to(3.0);
  EXPECT_EQ(rep.now(), 5.0);
  // Delivery stamps the placement but cannot rewind the clock either.
  auto requests = some_requests(1);
  rep.deliver(0, requests);
  EXPECT_EQ(requests[0].replica, 3);
  EXPECT_EQ(rep.now(), 5.0);
}

// ----------------------------------------------------------- SLO shedding

TEST(SloShedding, TightTtftDeadlineShedsHopelessRequestsOnly) {
  ServingConfig sc;
  sc.qps = 30.0;
  sc.duration_s = 8.0;
  sc.kv_blocks = 64;
  sc.slo.ttft_deadline_ms = 30.0;
  const ClusterStats cs = simulate_cluster_detailed(test_engine(), sc);
  const sched::SchedStats& st = cs.sched;
  EXPECT_GT(st.shed, 0);
  ASSERT_EQ(cs.replicas.size(), 1u);
  EXPECT_EQ(cs.replicas[0].shed, st.shed);
  index_t shed = 0;
  for (const auto& r : st.requests) {
    EXPECT_TRUE(r.finished());
    if (!r.shed) continue;
    ++shed;
    // Shed before ever producing work: no tokens, no KV, no latency
    // sample (finish_s < 0 keeps it out of the metrics like a reject).
    EXPECT_EQ(r.generated, 0);
    EXPECT_TRUE(r.blocks.empty());
    EXPECT_LT(r.first_token_s, 0.0);
    EXPECT_LT(r.finish_s, 0.0);
    EXPECT_EQ(r.preemptions, 0);  // preempted requests are never shed
    EXPECT_FALSE(r.rejected);
  }
  EXPECT_EQ(shed, st.shed);
  // Every request ends exactly one way.
  EXPECT_EQ(st.metrics.completed + st.rejected + st.shed,
            static_cast<index_t>(st.requests.size()));
}

TEST(SloShedding, TpotDeadlineOnlyAccountsViolations) {
  ServingConfig sc;
  sc.qps = 2.0;
  sc.duration_s = 10.0;
  sc.slo.tpot_deadline_ms = 0.001;  // impossible: every completion violates
  const ClusterStats cs = simulate_cluster_detailed(test_engine(), sc);
  EXPECT_EQ(cs.sched.shed, 0);  // no TTFT deadline, nothing is shed
  EXPECT_GT(cs.sched.metrics.completed, 0);
  EXPECT_EQ(cs.sched.slo_tpot_violations, cs.sched.metrics.completed);
}

// ------------------------------------------------------------- autoscaler

ServingConfig bursty_autoscaled() {
  ServingConfig sc;
  // Long enough for several ON/OFF burst cycles: the OFF gaps are where
  // the scale-down evaluations actually fire.
  sc.shape = sched::WorkloadShape::kBursty;
  sc.qps = 24.0;
  sc.duration_s = 40.0;
  sc.kv_blocks = 96;
  sc.cluster.autoscaler.enabled = true;
  sc.cluster.autoscaler.min_replicas = 1;
  sc.cluster.autoscaler.max_replicas = 4;
  sc.cluster.autoscaler.interval_s = 2.0;
  sc.cluster.autoscaler.scale_up_queue_per_replica = 4.0;
  sc.cluster.autoscaler.scale_down_queue_per_replica = 0.5;
  return sc;
}

TEST(Autoscaler, AddDrainRoundTripWithoutKvLeaks) {
  const ServingConfig sc = bursty_autoscaled();
  const ClusterStats cs = simulate_cluster_detailed(test_engine(), sc);
  EXPECT_GT(cs.replicas_added, 0);
  EXPECT_GT(cs.replicas_drained, 0);
  EXPECT_GT(cs.peak_replicas, 1);
  EXPECT_LE(cs.peak_replicas, sc.cluster.autoscaler.max_replicas);
  // Retired replicas stay in the fleet (ids keep indexing it).
  EXPECT_EQ(cs.replicas.size(),
            static_cast<std::size_t>(1 + cs.replicas_added));
  index_t routed = 0;
  index_t completed = 0;
  for (const auto& rep : cs.replicas) {
    EXPECT_EQ(rep.leaked_kv_blocks, 0);
    // The run only ends when everything drained, so nothing may still be
    // mid-drain.
    EXPECT_NE(rep.lifecycle, ReplicaLifecycle::kDraining);
    routed += rep.routed;
    completed += rep.completed;
  }
  EXPECT_EQ(routed, static_cast<index_t>(cs.sched.requests.size()));
  EXPECT_EQ(completed, cs.sched.metrics.completed);
  EXPECT_EQ(cs.sched.metrics.completed + cs.sched.rejected + cs.sched.shed,
            static_cast<index_t>(cs.sched.requests.size()));
}

TEST(Autoscaler, RunsReproduceBitIdentically) {
  const ServingConfig sc = bursty_autoscaled();
  const ClusterStats a = simulate_cluster_detailed(test_engine(), sc);
  const ClusterStats b = simulate_cluster_detailed(test_engine(), sc);
  expect_sched_equal(a.sched, b.sched);
  EXPECT_EQ(a.replicas_added, b.replicas_added);
  EXPECT_EQ(a.replicas_drained, b.replicas_drained);
  EXPECT_EQ(a.peak_replicas, b.peak_replicas);
}

// ------------------------------------------ disaggregated prefill/decode

// Arrivals spaced so far apart that each request drains completely before
// the next lands: with no overlap, a 1 prefill + 1 decode pool over a
// zero-cost link performs the exact same engine steps at the exact same
// clock values as one unified replica — the differential configuration.
std::vector<sched::TraceRequest> sparse_trace(index_t n, double gap_s) {
  std::vector<sched::TraceRequest> trace;
  for (index_t i = 0; i < n; ++i) {
    sched::TraceRequest r;
    r.arrival_s = gap_s * static_cast<double>(i);
    r.input_tokens = 64;
    r.output_tokens = 32;
    trace.push_back(r);
  }
  return trace;
}

ClusterOptions disagg_1p1d(double kv_bytes_per_token = 0.0,
                           double link_bytes_per_s = 0.0,
                           double link_latency_s = 0.0) {
  ClusterOptions opts;
  opts.disagg.enabled = true;
  opts.disagg.prefill_replicas = 1;
  opts.disagg.decode_replicas = 1;
  opts.disagg.kv_bytes_per_token = kv_bytes_per_token;
  opts.disagg.link_bytes_per_s = link_bytes_per_s;
  opts.disagg.link_latency_s = link_latency_s;
  return opts;
}

TEST(DisaggDifferential, ZeroCostLinkMatchesUnifiedAndLegacyBitForBit) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  const auto trace = sparse_trace(4, 20.0);
  const sched::SchedStats unified =
      EventLoop(sch, ClusterOptions{}).run(trace).sched;
  EXPECT_EQ(unified.metrics.completed, 4);
  const ClusterStats disagg = EventLoop(sch, disagg_1p1d()).run(trace);
  // The handoff counters are the one difference, checked below.
  sched::SchedStats handed_off = disagg.sched;
  handed_off.migrated_out = handed_off.migrated_in = 0;
  expect_sched_equal(unified, handed_off);
  // The handoffs really happened — equivalence is not migration
  // having silently fallen back to in-place decoding.
  EXPECT_EQ(disagg.sched.migrated_out, 4);
  EXPECT_EQ(disagg.sched.migrated_in, 4);
  EXPECT_EQ(disagg.transfer_seconds, 0.0);
  ASSERT_EQ(disagg.replicas.size(), 2u);
  EXPECT_EQ(disagg.replicas[0].role, ReplicaRole::kPrefill);
  EXPECT_EQ(disagg.replicas[1].role, ReplicaRole::kDecode);
  EXPECT_EQ(disagg.replicas[0].migrated_out, 4);
  EXPECT_EQ(disagg.replicas[1].migrated_in, 4);
  EXPECT_EQ(disagg.replicas[0].decode_steps, 0);
  EXPECT_EQ(disagg.replicas[0].leaked_kv_blocks, 0);
  EXPECT_EQ(disagg.replicas[1].leaked_kv_blocks, 0);
}

TEST(DisaggMigration, PricedLinkDelaysTtftAndAccountsPerLink) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  const auto trace = sparse_trace(3, 20.0);
  // 1 KB per token over a 1 MB/s link with 1 ms setup: 64 tokens take
  // 64/1000 + 0.001 seconds per transfer — large enough to observe.
  const ClusterStats cs =
      EventLoop(sch, disagg_1p1d(1e3, 1e6, 1e-3)).run(trace);
  const ClusterStats free_link =
      EventLoop(sch, disagg_1p1d()).run(trace);
  EXPECT_EQ(cs.sched.migrated_out, 3);
  // Every prompt token crossed the wire: the cold destination cache
  // skipped none, so 3 x 64 tokens at 1 KB each.
  EXPECT_EQ(cs.sched.prefix_tokens_skipped, 0);
  EXPECT_DOUBLE_EQ(cs.transfer_bytes, 3.0 * 64.0 * 1e3);
  // Accumulated as (arrival - start) differences, so allow float slack.
  EXPECT_NEAR(cs.transfer_seconds, 3.0 * (64.0 * 1e3 / 1e6 + 1e-3), 1e-12);
  // The wire time lands on TTFT, token for token.
  const double per_transfer_s = 64.0 * 1e3 / 1e6 + 1e-3;
  ASSERT_EQ(cs.sched.requests.size(), free_link.sched.requests.size());
  for (std::size_t i = 0; i < cs.sched.requests.size(); ++i) {
    EXPECT_NEAR(cs.sched.requests[i].first_token_s,
                free_link.sched.requests[i].first_token_s + per_transfer_s,
                1e-9);
    EXPECT_EQ(cs.sched.requests[i].replica, 1);  // decoded after the handoff
  }
  EXPECT_GT(cs.sched.metrics.mean_ttft_ms,
            free_link.sched.metrics.mean_ttft_ms);
  // One prefill replica, one decode replica: the one link's two ends
  // each count every handoff.
  ASSERT_EQ(cs.replicas.size(), 2u);
  EXPECT_EQ(cs.replicas[0].migrated_out, 3);
  EXPECT_EQ(cs.replicas[0].migrated_in, 0);
  EXPECT_EQ(cs.replicas[1].migrated_out, 0);
  EXPECT_EQ(cs.replicas[1].migrated_in, 3);
}

TEST(DisaggMigration, TransferCanMissATtftDeadlineThePrefillMet) {
  sched::SchedulerConfig cfg = sched_cfg(96);
  // Generous enough that the prefill itself always makes the deadline
  // (nothing is shed), tight enough that a ~6 s transfer cannot.
  cfg.slo.ttft_deadline_ms = 2000.0;
  const sched::Scheduler sch(test_engine(), cfg);
  const auto trace = sparse_trace(2, 30.0);
  const ClusterStats free_link =
      EventLoop(sch, disagg_1p1d()).run(trace);
  EXPECT_EQ(free_link.sched.shed, 0);
  EXPECT_EQ(free_link.sched.slo_ttft_violations, 0);
  const ClusterStats slow =
      EventLoop(sch, disagg_1p1d(1e3, 1e4, 0.0)).run(trace);  // 6.4 s/transfer
  EXPECT_EQ(slow.sched.migrated_out, 2);
  EXPECT_EQ(slow.sched.slo_ttft_violations, 2);
}

TEST(DisaggMigration, FullDecodePoolFallsBackToDecodingInPlace) {
  // A tight per-replica budget (8 blocks) and three near-simultaneous
  // requests: the first migration parks ~5 blocks on the lone decode
  // replica, so the next prefill completion cannot fit its 5 whole blocks
  // there and decodes in place on the prefill replica, unified-style.
  const sched::Scheduler sch(test_engine(), sched_cfg(8));
  std::vector<sched::TraceRequest> trace;
  for (index_t i = 0; i < 3; ++i) {
    sched::TraceRequest r;
    r.arrival_s = 0.02 * static_cast<double>(i);
    r.input_tokens = 64;
    r.output_tokens = 32;
    trace.push_back(r);
  }
  const ClusterStats cs = EventLoop(sch, disagg_1p1d()).run(trace);
  EXPECT_GE(cs.sched.migrated_out, 1);  // the first handoff always fits
  EXPECT_LT(cs.sched.migrated_out, 3);  // at least one fell back in place
  ASSERT_EQ(cs.replicas.size(), 2u);
  // In-place fallback means the prefill replica really decoded.
  EXPECT_GT(cs.replicas[0].decode_steps, 0);
  EXPECT_EQ(cs.sched.metrics.completed + cs.sched.rejected + cs.sched.shed,
            3);
  EXPECT_EQ(cs.replicas[0].leaked_kv_blocks, 0);
  EXPECT_EQ(cs.replicas[1].leaked_kv_blocks, 0);
  // Fallback is a placement decision, not a failure: nothing was shed or
  // rejected by it.
  EXPECT_EQ(cs.sched.metrics.completed, 3);
}

TEST(DisaggMigration, BlockedDecodeReplicaWaitsForItsInFlightLanding) {
  // 8 blocks per replica. The first request lands on the decode replica
  // and grows to 5 blocks while the second's 3-block receive buffer is
  // held there in flight (a slow link). Its 6th block cannot be had, so it
  // is preempted — and its recompute prefill cannot be re-admitted while
  // the landing still holds the buffer. The decode replica must idle
  // until the landing, not stall.
  const sched::Scheduler sch(test_engine(), sched_cfg(8));
  std::vector<sched::TraceRequest> trace(2);
  trace[0] = {0.0, 48, 40};
  trace[1] = {0.15, 48, 40};
  const ClusterStats cs =
      EventLoop(sch, disagg_1p1d(0.0, 0.0, 1.0)).run(trace);
  EXPECT_EQ(cs.sched.migrated_out, 2);
  ASSERT_EQ(cs.replicas.size(), 2u);
  EXPECT_GE(cs.replicas[1].preemptions, 1);
  EXPECT_EQ(cs.sched.metrics.completed, 2);
  EXPECT_EQ(cs.replicas[1].leaked_kv_blocks, 0);
  const ClusterStats ref =
      reference::run(sch, disagg_1p1d(0.0, 0.0, 1.0), trace);
  EXPECT_EQ(ref.sched.sim_end_s, cs.sched.sim_end_s);
  EXPECT_EQ(ref.replicas[1].preemptions, cs.replicas[1].preemptions);
}

TEST(DisaggMigration, OnlyRunningRequestsMayMigrateOut) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  Replica src(0, sch, ReplicaRole::kPrefill);
  std::vector<sched::Request> requests;
  requests.emplace_back(0, 0.0, 64, 8);
  requests.emplace_back(1, 0.0, 64, 8);
  src.deliver(0, requests);
  // Still queued: no prefill has produced KV worth moving.
  EXPECT_THROW(src.migrate_out(0, requests), Error);
  while (!requests[0].finished()) src.tick(requests);
  // Finished requests cannot move either.
  EXPECT_THROW(src.migrate_out(0, requests), Error);
  // A preempted request freed its KV — the guard refuses it outright
  // (the EventLoop's decision pass additionally skips non-running
  // states, so this throw is the backstop, not the normal path).
  sched::Request& preempted = requests[1];
  preempted.set_state(sched::RequestState::kPrefilling);
  preempted.set_state(sched::RequestState::kRunning);
  preempted.set_state(sched::RequestState::kPreempted);
  EXPECT_THROW(src.migrate_out(1, requests), Error);
  EXPECT_EQ(src.state().bm.used_blocks(), 0);
}

TEST(DisaggMigration, DrainingPrefillReplicaFinishesItsWorkInPlace) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  Replica src(0, sch, ReplicaRole::kPrefill);
  std::vector<sched::Request> requests;
  requests.emplace_back(0, 0.0, 64, 8);
  src.deliver(0, requests);
  while (requests[0].state != sched::RequestState::kRunning) {
    src.tick(requests);
  }
  src.begin_drain();
  // The EventLoop's decision pass leaves requests on a non-active source
  // alone; the draining replica finishes them where they are.
  EXPECT_FALSE(src.routable());
  while (!requests[0].finished()) src.tick(requests);
  EXPECT_EQ(requests[0].replica, 0);
  EXPECT_GE(requests[0].finish_s, 0.0);
  EXPECT_EQ(src.state().migrated_out, 0);
  EXPECT_TRUE(src.try_retire());
  EXPECT_EQ(src.state().bm.used_blocks(), 0);
}

TEST(DisaggMigration, DestinationPrefixCacheSkipsTransferredBlocks) {
  sched::SchedulerConfig cfg = sched_cfg(96);
  cfg.blocks.prefix_cache.enabled = true;
  const sched::Scheduler sch(test_engine(), cfg);
  Replica src(0, sch, ReplicaRole::kPrefill);
  Replica dst(1, sch, ReplicaRole::kDecode);
  std::vector<sched::Request> requests;
  for (index_t i = 0; i < 2; ++i) {
    sched::Request& r = requests.emplace_back(i, 0.0, 64, 8);
    r.prefix_id = 7;
    r.prefix_tokens = 64;  // 4 full blocks of shared prefix
  }

  // First request: cold destination cache, everything crosses the wire.
  src.deliver(0, requests);
  while (requests[0].state != sched::RequestState::kRunning) {
    src.tick(requests);
  }
  src.migrate_out(0, requests);
  EXPECT_EQ(dst.begin_migration(0, requests), 0);
  dst.finish_migration(0, src.now(), requests);
  while (!requests[0].finished()) dst.tick(requests);
  EXPECT_EQ(dst.state().migrated_in, 1);

  // Second request shares the prefix: releasing the first parked its
  // published prompt blocks in the destination's cache, so the re-acquire
  // hits and those tokens never cross the wire.
  src.deliver(1, requests);
  while (requests[1].state != sched::RequestState::kRunning) {
    src.tick(requests);
  }
  src.migrate_out(1, requests);
  const index_t skipped = dst.begin_migration(1, requests);
  EXPECT_EQ(skipped, 64);
  EXPECT_EQ(dst.state().prefix_tokens_skipped, 64);
  dst.finish_migration(1, src.now(), requests);
  while (!requests[1].finished()) dst.tick(requests);
  EXPECT_EQ(src.state().bm.used_blocks(), 0);
  // Only parked (refcount-0, cached) blocks remain on the destination.
  EXPECT_EQ(dst.state().bm.used_blocks(), 0);
}

TEST(DisaggMigration, EndToEndServerSimPricesTransfersFromTheEngine) {
  ServingConfig sc;
  sc.qps = 8.0;
  sc.duration_s = 12.0;
  sc.kv_blocks = 96;
  sc.cluster.disagg.enabled = true;
  sc.cluster.disagg.prefill_replicas = 1;
  sc.cluster.disagg.decode_replicas = 1;
  const ClusterStats cs = simulate_cluster_detailed(test_engine(), sc);
  EXPECT_GT(cs.sched.migrated_out, 0);
  // kv_bytes_per_token auto-derives from the engine (> 0), and the link
  // from the device interconnect, so tokens cross the wire and real time
  // accrues on it.
  EXPECT_GT(cs.transfer_bytes, 0.0);
  EXPECT_GT(cs.transfer_seconds, 0.0);
  EXPECT_EQ(cs.sched.metrics.completed + cs.sched.rejected + cs.sched.shed,
            static_cast<index_t>(cs.sched.requests.size()));
  for (const auto& rep : cs.replicas) {
    EXPECT_EQ(rep.leaked_kv_blocks, 0);
  }
  // Bit-identical repeat.
  const ClusterStats again = simulate_cluster_detailed(test_engine(), sc);
  expect_sched_equal(cs.sched, again.sched);
  EXPECT_EQ(cs.sched.migrated_out, again.sched.migrated_out);
  EXPECT_EQ(cs.transfer_bytes, again.transfer_bytes);
}

// ------------------------------------------------- least-loaded counter

// The maintained counter must equal the reference recount after every
// replica call.
using reference::recount_load;

#define EXPECT_COUNTER_EXACT(rep, requests) \
  EXPECT_EQ((rep).outstanding_tokens(), recount_load((rep), (requests)))

// Ticks until `done` holds, checking the counter after every tick.
template <typename Done>
void tick_until(Replica& rep, std::vector<sched::Request>& requests,
                const Done& done) {
  for (int guard = 0; !done(); ++guard) {
    ASSERT_LT(guard, 100000) << "replica made no progress";
    rep.tick(requests);
    EXPECT_COUNTER_EXACT(rep, requests);
  }
}

TEST(LeastLoadedCounter, MatchesRecountThroughDeliverChunkedPrefillAndFinish) {
  sched::SchedulerConfig cfg = sched_cfg(0);
  cfg.prefill_chunk_tokens = 16;  // several prefill chunks per request
  const sched::Scheduler sch(test_engine(), cfg);
  Replica rep(0, sch);
  std::vector<sched::Request> requests;
  requests.emplace_back(0, 0.0, 40, 6);
  requests.emplace_back(1, 0.0, 70, 3);
  requests.emplace_back(2, 0.0, 9, 12);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    rep.deliver(i, requests);
    EXPECT_COUNTER_EXACT(rep, requests);
  }
  EXPECT_EQ(rep.outstanding_tokens(), 46 + 73 + 21);
  tick_until(rep, requests, [&] { return !rep.busy(); });
  EXPECT_EQ(rep.outstanding_tokens(), 0);
}

TEST(LeastLoadedCounter, RunningRequestKeepsItsFullOutputWhileDecoding) {
  // Today's key: once prefilled, a request counts prompt + output -
  // prefilled = output tokens, and decoding does not shrink that.
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  Replica rep(0, sch);
  std::vector<sched::Request> requests;
  requests.emplace_back(0, 0.0, 32, 10);
  rep.deliver(0, requests);
  EXPECT_EQ(rep.outstanding_tokens(), 42);
  tick_until(rep, requests, [&] {
    return requests[0].state == sched::RequestState::kRunning;
  });
  EXPECT_EQ(rep.outstanding_tokens(), 10);
  const auto generated = [&] { return rep.state().generated(requests[0]); };
  const index_t generated_at_start = generated();
  while (generated() < requests[0].output_tokens - 1) {
    rep.tick(requests);
    EXPECT_EQ(rep.outstanding_tokens(), 10);
    EXPECT_COUNTER_EXACT(rep, requests);
  }
  EXPECT_GT(generated(), generated_at_start);
  tick_until(rep, requests, [&] { return requests[0].finished(); });
  EXPECT_EQ(rep.outstanding_tokens(), 0);
}

TEST(LeastLoadedCounter, TracksPreemptionUnderATightKvBudget) {
  // 12 blocks of 16 tokens: four 32-token prompts fit at admission, but
  // their decode growth does not, so the last-admitted get preempted
  // (prefilled back to 0, recompute target grows).
  const sched::Scheduler sch(test_engine(), sched_cfg(12));
  Replica rep(0, sch);
  std::vector<sched::Request> requests;
  for (index_t i = 0; i < 4; ++i) requests.emplace_back(i, 0.0, 32, 40);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    rep.deliver(i, requests);
  }
  EXPECT_COUNTER_EXACT(rep, requests);
  tick_until(rep, requests, [&] { return !rep.busy(); });
  EXPECT_GT(rep.state().preemptions, 0);
  EXPECT_EQ(rep.state().rejected, 0);
  EXPECT_EQ(rep.outstanding_tokens(), 0);
}

TEST(LeastLoadedCounter, PrefixCacheHitStartsPastTheCachedRun) {
  sched::SchedulerConfig cfg = sched_cfg(96);
  cfg.blocks.prefix_cache.enabled = true;
  const sched::Scheduler sch(test_engine(), cfg);
  Replica rep(0, sch);
  std::vector<sched::Request> requests;
  for (index_t i = 0; i < 2; ++i) {
    sched::Request& r = requests.emplace_back(i, 0.0, 64, 8);
    r.prefix_id = 3;
    r.prefix_tokens = 64;  // 4 full shared blocks
  }
  rep.deliver(0, requests);
  tick_until(rep, requests, [&] { return requests[0].finished(); });
  // The second request's admission hits the published prefix, so its
  // prefill starts at prefilled = cached_tokens > 0.
  rep.deliver(1, requests);
  EXPECT_EQ(rep.outstanding_tokens(), 72);
  rep.tick(requests);
  EXPECT_COUNTER_EXACT(rep, requests);
  EXPECT_GT(rep.state().prefix_tokens_skipped, 0);
  tick_until(rep, requests, [&] { return !rep.busy(); });
  EXPECT_EQ(rep.outstanding_tokens(), 0);
}

TEST(LeastLoadedCounter, ShedAndRejectedRequestsLeaveTheKey) {
  // Rejection: 4 blocks can never hold a 96 + 8 token request.
  {
    const sched::Scheduler sch(test_engine(), sched_cfg(4));
    Replica rep(0, sch);
    std::vector<sched::Request> requests;
    requests.emplace_back(0, 0.0, 96, 8);
    rep.deliver(0, requests);
    EXPECT_EQ(rep.outstanding_tokens(), 104);
    tick_until(rep, requests, [&] { return !rep.busy(); });
    EXPECT_EQ(rep.state().rejected, 1);
    EXPECT_EQ(rep.outstanding_tokens(), 0);
  }
  // Shedding: a TTFT deadline no prefill can meet.
  {
    sched::SchedulerConfig cfg = sched_cfg(0);
    cfg.slo.ttft_deadline_ms = 1e-6;
    const sched::Scheduler sch(test_engine(), cfg);
    Replica rep(0, sch);
    std::vector<sched::Request> requests;
    requests.emplace_back(0, 0.0, 64, 8);
    requests.emplace_back(1, 0.0, 32, 4);
    rep.deliver(0, requests);
    rep.deliver(1, requests);
    tick_until(rep, requests, [&] { return !rep.busy(); });
    EXPECT_EQ(rep.state().shed, 2);
    EXPECT_EQ(rep.outstanding_tokens(), 0);
  }
}

TEST(LeastLoadedCounter, FollowsADisaggMigration) {
  const sched::Scheduler sch(test_engine(), sched_cfg(96));
  Replica src(0, sch, ReplicaRole::kPrefill);
  Replica dst(1, sch, ReplicaRole::kDecode);
  std::vector<sched::Request> requests;
  requests.emplace_back(0, 0.0, 64, 8);
  src.deliver(0, requests);
  tick_until(src, requests, [&] {
    return requests[0].state == sched::RequestState::kRunning;
  });
  EXPECT_EQ(src.outstanding_tokens(), 8);
  src.migrate_out(0, requests);
  EXPECT_COUNTER_EXACT(src, requests);
  EXPECT_EQ(src.outstanding_tokens(), 0);
  (void)dst.begin_migration(0, requests);
  // In flight: counted on neither side until the KV lands.
  EXPECT_EQ(dst.outstanding_tokens(), 0);
  dst.finish_migration(0, src.now(), requests);
  EXPECT_COUNTER_EXACT(dst, requests);
  EXPECT_EQ(dst.outstanding_tokens(), 8);
  tick_until(dst, requests, [&] { return !dst.busy(); });
  EXPECT_EQ(dst.outstanding_tokens(), 0);
}

// ------------------------------------------------------------ fleet fold

TEST(FleetFold, SumsEveryLedgerCounterAndFillsEveryRow) {
  // A prefill and a decode replica whose 25 ledger counters are all
  // non-zero (a handoff count on its own end of the handoff) and differ
  // between them: a tight budget with a capped prefix cache (hits,
  // evictions, growth preemption), n = 2 sampling (CoW), speculation, a
  // TTFT deadline a batched prefill misses and a TPOT deadline every
  // completion misses. Replica r also gets r + 1 requests that can never
  // fit and r + 1 seen too late to make their deadline, and replica 1 a
  // second wave of longer prompts. Last, one request prefills on replica
  // 0 and is handed off to replica 1 to decode.
  sched::SchedulerConfig cfg = sched_cfg(40);
  cfg.prefill_chunk_tokens = 64;
  cfg.blocks.prefix_cache.enabled = true;
  cfg.blocks.prefix_cache.max_cached_blocks = 2;
  cfg.speculation.depth = 2;
  cfg.slo.ttft_deadline_ms = 60;
  cfg.slo.tpot_deadline_ms = 1e-3;
  const sched::Scheduler sch(test_engine(), cfg, &test_engine());
  std::vector<sched::Request> requests;
  std::deque<Replica> fleet;
  for (index_t rep = 0; rep < 2; ++rep) {
    std::vector<std::size_t> first, late;
    const auto add = [&](std::vector<std::size_t>& into, double arrival_s,
                         index_t prompt, index_t output) -> sched::Request& {
      into.push_back(requests.size());
      return requests.emplace_back(static_cast<index_t>(requests.size()),
                                   arrival_s, prompt, output);
    };
    for (index_t k = 0; k < 4 + 2 * rep; ++k) {
      sched::Request& r = add(first, 0.0, 96, 40);
      r.prefix_id = k % (1 + rep);
      r.prefix_tokens = 64;
      r.num_sequences = 2;
    }
    for (index_t k = 0; k <= rep; ++k) {
      add(first, 0.0, 16, 1000);  // never fits
      add(late, 0.0, 16, 8);
    }
    for (index_t k = 0; k < 2 * rep; ++k) add(late, 0.6, 192, 40);
    Replica& r = fleet.emplace_back(
        rep, sch, rep == 0 ? ReplicaRole::kPrefill : ReplicaRole::kDecode);
    for (const std::size_t id : first) r.deliver(id, requests);
    tick_until(r, requests, [&] { return r.now() > 0.5; });
    for (const std::size_t id : late) r.deliver(id, requests);
    tick_until(r, requests, [&] { return !r.busy(); });
  }
  Replica& src = fleet[0];
  Replica& dst = fleet[1];
  const std::size_t moved = requests.size();
  requests.emplace_back(static_cast<index_t>(moved),
                        std::max(src.now(), dst.now()), 96, 8);
  src.deliver(moved, requests);
  tick_until(src, requests, [&] {
    return requests[moved].state == sched::RequestState::kRunning;
  });
  src.migrate_out(moved, requests);
  (void)dst.begin_migration(moved, requests);
  dst.finish_migration(moved, src.now(), requests);
  tick_until(dst, requests, [&] { return !dst.busy(); });

  ClusterStats stats;
  stats.sched.requests = requests;
  fold_fleet_stats(fleet, stats);
  const sched::SchedStats& st = stats.sched;
  ASSERT_EQ(stats.replicas.size(), 2u);
  // Each ledger field, named independently of the `+=` bodies: per
  // replica in its row, and summed in the fleet totals.
  using Run = sched::RunCounters;
  using Kv = sched::KvCounters;
  const std::pair<const char*, index_t Run::*> run_fields[] = {
      {"preemptions", &Run::preemptions}, {"rejected", &Run::rejected},
      {"shed", &Run::shed}, {"prefill_steps", &Run::prefill_steps},
      {"decode_steps", &Run::decode_steps}, {"spec_rounds", &Run::spec_rounds},
      {"spec_draft_tokens", &Run::spec_draft_tokens},
      {"spec_committed_tokens", &Run::spec_committed_tokens},
      {"slo_ttft_violations", &Run::slo_ttft_violations},
      {"slo_tpot_violations", &Run::slo_tpot_violations},
      {"prefix_tokens_skipped", &Run::prefix_tokens_skipped},
      {"prefix_cache_hits", &Run::prefix_cache_hits},
      {"routed", &Run::routed}, {"migrated_out", &Run::migrated_out},
      {"migrated_in", &Run::migrated_in},
      {"decode_visits", &Run::decode_visits}};
  const std::pair<const char*, index_t Kv::*> kv_fields[] = {
      {"kv_blocks_allocated", &Kv::kv_blocks_allocated},
      {"kv_blocks_freed", &Kv::kv_blocks_freed},
      {"kv_grow_failures", &Kv::kv_grow_failures},
      {"kv_grow_scans", &Kv::kv_grow_scans},
      {"prefix_cache_lookup_blocks", &Kv::prefix_cache_lookup_blocks},
      {"prefix_cache_hit_blocks", &Kv::prefix_cache_hit_blocks},
      {"prefix_cache_evictions", &Kv::prefix_cache_evictions},
      {"cow_forks", &Kv::cow_forks}, {"cow_copies", &Kv::cow_copies}};
  const auto check = [&](const auto& fields, const auto& part) {
    for (const auto& [name, field] : fields) {
      const index_t a = part(fleet[0]).*field;
      const index_t b = part(fleet[1]).*field;
      // Only the decode replica receives a handoff.
      EXPECT_GT(std::string(name) == "migrated_in" ? b : a, 0) << name;
      EXPECT_NE(a, b) << name;
      EXPECT_EQ(stats.replicas[0].*field, a) << name;
      EXPECT_EQ(stats.replicas[1].*field, b) << name;
      EXPECT_EQ(st.*field, a + b) << name;
    }
  };
  check(run_fields, [](const Replica& r) -> const Run& { return r.state(); });
  check(kv_fields,
        [](const Replica& r) -> const Kv& { return r.state().bm.counters(); });

  // The rest of SchedStats and of each row.
  const sched::ReplicaState& s0 = fleet[0].state();
  const sched::ReplicaState& s1 = fleet[1].state();
  EXPECT_EQ(st.peak_kv_blocks, std::max(s0.bm.peak_used_blocks(),
                                        s1.bm.peak_used_blocks()));
  EXPECT_EQ(st.sim_end_s, std::max(s0.now, s1.now));
  EXPECT_EQ(st.metrics, sched::metrics_from_requests(
                            requests, s0.batch_weighted + s1.batch_weighted,
                            s0.decode_time_total + s1.decode_time_total));
  EXPECT_EQ(st.requests.size(), requests.size());
  for (std::size_t i = 0; i < 2; ++i) {
    const ReplicaStats& row = stats.replicas[i];
    const Replica& rep = fleet[i];
    EXPECT_EQ(row.id, rep.id());
    EXPECT_EQ(row.lifecycle, rep.lifecycle());
    EXPECT_EQ(row.role, rep.role());
    EXPECT_EQ(row.clock_s, rep.now());
    // Every request routed or handed here ends completed, rejected, shed
    // or handed on.
    EXPECT_EQ(row.completed, row.routed + row.migrated_in - row.migrated_out -
                                 row.rejected - row.shed);
    EXPECT_EQ(row.peak_kv_blocks, rep.state().bm.peak_used_blocks());
    EXPECT_EQ(row.leaked_kv_blocks, 0);
  }
}

// ------------------------------------------------------------ event queue

TEST(EventQueue, TopMatchesALinearScanUnderRandomUpdates) {
  // Coarse times force many ties: across kinds the phase order decides,
  // ticks break them to the lowest id and landings to the first pushed,
  // exactly like a scan over every pending event with a strict <.
  constexpr std::size_t kReplicas = 9;
  EventQueue queue;
  std::vector<bool> busy(kReplicas, false);
  std::vector<double> now(kReplicas, 0.0);
  struct Landing {
    double time;
    std::size_t seq;
  };
  std::vector<Landing> landings;  // push order
  std::size_t pushed = 0;
  std::uint64_t x = 12345;
  for (int step = 0; step < 5000; ++step) {
    x = util::mix64(x);
    const double t = static_cast<double>((x >> 16) % 6);
    switch ((x >> 8) % 4) {
      case 0:  // a landing; its request is its push index
        landings.push_back({t, pushed});
        queue.push_landing(t, pushed++, x % kReplicas);
        break;
      case 1: {  // pop the top
        if (queue.empty()) break;
        const Event top = queue.top();
        if (top.kind() == EventKind::kTick) {
          busy[top.id()] = false;
          queue.set_tick(top.id(), false, 0.0);
        } else {
          queue.pop();
          ASSERT_EQ(queue.take_landing(top.id()).request, top.id());
          std::erase_if(landings,
                        [&](const Landing& l) { return l.seq == top.id(); });
        }
        break;
      }
      default: {  // re-key, insert or remove a tick
        const std::size_t id = x % kReplicas;
        busy[id] = (x >> 24) % 4 != 0;
        now[id] = t;
        queue.set_tick(id, busy[id], now[id]);
      }
    }
    const Landing* landing = nullptr;
    for (const Landing& l : landings) {
      if (landing == nullptr || l.time < landing->time) landing = &l;
    }
    std::size_t tick = kReplicas;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      if (busy[i] && (tick == kReplicas || now[i] < now[tick])) tick = i;
    }
    ASSERT_EQ(queue.empty(), landing == nullptr && tick == kReplicas)
        << "step " << step;
    if (queue.empty()) continue;
    const Event& top = queue.top();
    if (landing == nullptr || (tick < kReplicas && now[tick] < landing->time)) {
      ASSERT_EQ(top.kind(), EventKind::kTick) << "step " << step;
      ASSERT_EQ(top.id(), tick) << "step " << step;
      ASSERT_EQ(top.time, now[tick]) << "step " << step;
    } else {
      ASSERT_EQ(top.kind(), EventKind::kLanding) << "step " << step;
      ASSERT_EQ(top.id(), landing->seq) << "step " << step;
      ASSERT_EQ(top.time, landing->time) << "step " << step;
    }
  }
}

// ------------------------------------------------------------- time order

TEST(TimeOrder, WokenReplicaTicksBeforeLaterArrivals) {
  // Replica 0 is deep in a long prefill when round-robin hands replica 1
  // two requests. The first must start at its own arrival, alone, as a
  // lone request would: it is not held back until the second arrives.
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  ClusterOptions opts;
  opts.replicas = 2;
  const std::vector<sched::TraceRequest> trace = {
      {0.0, 2048, 4}, {0.01, 64, 4}, {0.02, 64, 4}, {0.03, 64, 4}};
  ASSERT_GT(sch.model().prefill_seconds(1, 2048), 0.03);
  const ClusterStats cs = EventLoop(sch, opts).run(trace);
  const sched::Request& first = cs.sched.requests[1];
  ASSERT_EQ(first.replica, 1);
  ASSERT_EQ(cs.sched.requests[3].replica, 1);
  EXPECT_EQ(first.first_token_s, 0.01 + sch.model().prefill_seconds(1, 64));
}

TEST(TimeOrder, NoRequestIsPlacedOnAReplicaStartedAfterItArrived) {
  // One replica admitting one request per tick: five requests queue at
  // t = 0, the first in a long prefill, and a sixth arrives at 10 ms.
  // The evaluation at 50 ms sees four queued and adds a replica, which
  // the sixth request must not reach: it was routed when it arrived.
  sched::SchedulerConfig cfg = sched_cfg(0);
  cfg.max_batch = 1;
  const sched::Scheduler sch(test_engine(), cfg);
  ClusterOptions opts;
  opts.placement = Placement::kLeastLoaded;
  opts.autoscaler.enabled = true;
  opts.autoscaler.max_replicas = 2;
  opts.autoscaler.interval_s = 0.05;
  opts.autoscaler.scale_up_queue_per_replica = 2.0;
  opts.autoscaler.scale_down_queue_per_replica = 0.5;
  std::vector<sched::TraceRequest> trace(5, {0.0, 64, 4});
  trace[0].input_tokens = 2048;
  trace.push_back({0.01, 64, 4});
  ASSERT_GT(sch.model().prefill_seconds(1, 2048), 0.05);
  obs::TraceRecorder recorded;
  obs::ServeRecorder recorder(&recorded, nullptr);
  const ClusterStats cs = EventLoop(sch, opts).run(trace, &recorder);
  ASSERT_GT(cs.replicas_added, 0);
  // Replicas start in id order, so the first start event's process is
  // replica 0's.
  std::vector<double> start_us;
  std::int64_t pid0 = -1;
  for (const obs::TraceEvent& e : recorded.events()) {
    if (e.cat != "replica" || e.name != "start") continue;
    if (pid0 < 0) pid0 = e.pid;
    ASSERT_EQ(e.pid - pid0, static_cast<std::int64_t>(start_us.size()));
    start_us.push_back(e.ts_us);
  }
  ASSERT_EQ(start_us.size(), cs.replicas.size());
  for (const sched::Request& r : cs.sched.requests) {
    EXPECT_LE(start_us[static_cast<std::size_t>(r.replica)],
              r.arrival_s * 1e6)
        << "request " << r.id << " on replica " << r.replica;
  }
}

TEST(TimeOrder, LandingsLandInReadyTimeOrder) {
  // One prefill replica, admitting one request per tick, hands A (a long
  // prompt, a long transfer) and then B (a short one) to the decode
  // replica; B's KV lands first. It then prefills C, whose long step
  // runs past both landings. B must decode from its own landing and
  // finish while A is still on the wire.
  sched::SchedulerConfig cfg = sched_cfg(0);
  cfg.max_batch = 1;
  const sched::Scheduler sch(test_engine(), cfg);
  const double prefill_c = sch.model().prefill_seconds(1, 4096);
  // The link moves A's 256 tokens in half of C's prefill.
  const ClusterOptions opts = disagg_1p1d(1e3, 256e3 / (prefill_c / 2));
  const std::vector<sched::TraceRequest> trace = {
      {0.0, 256, 8}, {0.0, 16, 2}, {0.0, 4096, 1}, {0.0, 16, 2}};
  const ClusterStats cs = EventLoop(sch, opts).run(trace);
  const sched::Request& a = cs.sched.requests[0];
  const sched::Request& b = cs.sched.requests[1];
  const sched::Request& c = cs.sched.requests[2];
  ASSERT_EQ(a.replica, 1);
  ASSERT_EQ(b.replica, 1);
  ASSERT_EQ(c.replica, 0);  // a 1-token output finishes at its prefill
  // A was decided first, B lands first, and C's prefill ends after both.
  ASSERT_LT(b.first_token_s, a.first_token_s);
  ASSERT_GE(c.finish_s, a.first_token_s);
  EXPECT_LT(b.finish_s, a.first_token_s);
  const ClusterStats ref = reference::run(sch, opts, trace);
  EXPECT_EQ(ref.sched.requests[1].finish_s, b.finish_s);
}

// ------------------------------------------------------------- validation

TEST(ClusterValidation, BadOptionsThrow) {
  const sched::Scheduler sch(test_engine(), sched_cfg(0));
  ClusterOptions opts;
  opts.replicas = 0;
  EXPECT_THROW(opts.validate(), Error);
  EXPECT_THROW(EventLoop(sch, opts), Error);

  AutoscalerConfig as;
  as.interval_s = 0.0;
  EXPECT_THROW(as.validate(), Error);
  as = AutoscalerConfig{};
  as.max_replicas = 2;
  as.min_replicas = 4;
  EXPECT_THROW(as.validate(), Error);
  as = AutoscalerConfig{};
  as.scale_up_queue_per_replica = 1.0;  // no hysteresis gap
  as.scale_down_queue_per_replica = 1.0;
  EXPECT_THROW(as.validate(), Error);

  opts = ClusterOptions{};
  opts.autoscaler.enabled = true;
  opts.replicas = opts.autoscaler.max_replicas + 1;
  EXPECT_THROW(opts.validate(), Error);

  // Disaggregation: pool sizes must be positive, pricing non-negative,
  // and the autoscaler cannot resize fixed pools.
  opts = ClusterOptions{};
  opts.disagg.enabled = true;
  opts.disagg.prefill_replicas = 0;
  EXPECT_THROW(opts.validate(), Error);
  opts.disagg.prefill_replicas = 1;
  opts.disagg.decode_replicas = 0;
  EXPECT_THROW(opts.validate(), Error);
  opts.disagg.decode_replicas = 1;
  opts.disagg.kv_bytes_per_token = -1.0;
  EXPECT_THROW(opts.validate(), Error);
  opts.disagg.kv_bytes_per_token = 0.0;
  opts.disagg.link_latency_s = -1e-6;
  EXPECT_THROW(opts.validate(), Error);
  opts.disagg.link_latency_s = 0.0;
  opts.validate();  // the zero-cost link itself is legal
  opts.autoscaler.enabled = true;
  EXPECT_THROW(opts.validate(), Error);
}

TEST(ClusterValidation, NegativeSloDeadlinesThrow) {
  sched::SloConfig slo;
  slo.ttft_deadline_ms = -1.0;
  EXPECT_THROW(slo.validate(), Error);
  sched::SchedulerConfig cfg = sched_cfg(0);
  cfg.slo.tpot_deadline_ms = -0.5;
  EXPECT_THROW(sched::Scheduler(test_engine(), cfg), Error);
}

}  // namespace
}  // namespace marlin::serve::cluster
