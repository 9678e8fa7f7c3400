// Seed-swept randomized invariant fuzzer for the serving stack: every
// seed derives a random ServingConfig spanning the policy × replica ×
// SLO × prefix-cache × speculation (and draft model) × disaggregation ×
// autoscaler × tensor/pipeline-parallel × KV block size space, runs it
// end to end, and asserts the invariants that must hold for
// *every* configuration:
//
//   - no KV blocks leak (every replica ends at used_blocks == 0),
//   - request conservation (completed + rejected + shed == offered, and
//     every request reaches a terminal state),
//   - monotone time (arrival <= first token <= finish <= sim end),
//   - per-tenant splits sum back to the fleet totals, and the replicas'
//     ledger rows sum back to the fleet's ledger,
//   - repeat runs reproduce bit-identically (subset of seeds),
//   - the optimized EventLoop (event queue, maintained least-loaded
//     counters, once-per-run tenant table) produces bit-equal
//     ClusterStats to the linear-scan time-ordered reference loop in
//     reference_event_loop.cpp, on every seed, both fed by one
//     `Simulation` (the set-up `simulate_cluster_detailed` runs),
//   - attaching a ServeRecorder with both a trace and a metrics sink
//     changes no bit of the ClusterStats, and every exported
//     `marlin_*_total` series equals the stats field it is derived from,
//     on every seed,
//   - token conservation on every seed's recorded run: the tokens each
//     request decoded past its first equal the exposition's summed
//     decode batch (committed tokens under speculation),
//   - on every seed's trace run on one FCFS replica, `Scheduler::admit`
//     produces bit-equal request outcomes and replica counters to the
//     frozen queue-snapshot admission in reference_admission.cpp,
//   - on every seed's trace run on one replica under the seed's own
//     scheduler (policy, speculation, n > 1, prefix cache, quotas, block
//     size), `Scheduler::admit` plus `Scheduler::step` produce bit-equal
//     request outcomes and replica counters to the frozen snapshot
//     admission plus the frozen per-request step in reference_step.cpp.
//
// The sweep size defaults to 200 fixed seeds and can be narrowed with
// MARLIN_FUZZ_SEEDS=<n> (the sanitizer CI job runs a subset; the seeds
// themselves never change, so failures reproduce by number).
//
// Registered under the ctest label `fuzz`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/serve_recorder.hpp"
#include "obs/trace.hpp"
#include "reference_admission.hpp"
#include "reference_event_loop.hpp"
#include "reference_step.hpp"
#include "serve/server_sim.hpp"

namespace marlin::serve {
namespace {

const Engine& fuzz_engine() {
  static const Engine engine = [] {
    EngineConfig cfg;
    cfg.model = llama2_7b();
    cfg.gpu = gpusim::rtxa6000();
    cfg.format = WeightFormat::kMarlin;
    return Engine(cfg);
  }();
  return engine;
}

index_t seed_count() {
  if (const char* env = std::getenv("MARLIN_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// One seed's draw: the serving configuration plus, for the differential
/// oracle only, a grid the trace's arrival times are snapped down to
/// (0 = leave them), so many requests land at one instant and many busy
/// replicas tie on the clock.
struct FuzzCase {
  ServingConfig sc;
  double arrival_grid_s = 0;
};

/// Deterministic case for one seed. The generator is seeded by the
/// sweep seed alone, so seed k means the same configuration forever —
/// a failure report of "seed 137" reproduces by number.
FuzzCase case_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto pickd = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  ServingConfig sc;
  sc.seed = seed;
  sc.qps = pickd(4.0, 20.0);
  sc.duration_s = pickd(3.0, 6.0);
  sc.input_tokens = pick(16, 96);
  sc.output_tokens = pick(4, 48);
  sc.max_batch = pick(8, 64);
  sc.shape = std::array{sched::WorkloadShape::kPoisson,
                        sched::WorkloadShape::kBursty,
                        sched::WorkloadShape::kShareGpt}[pick(0, 2)];
  sc.policy = std::array{sched::SchedPolicy::kFcfs,
                         sched::SchedPolicy::kShortestJob,
                         sched::SchedPolicy::kMaxUtilization,
                         sched::SchedPolicy::kWeightedFair}[pick(0, 3)];
  // 0 = unlimited; otherwise tight enough that preemption and admission
  // backpressure actually fire.
  sc.kv_blocks = pick(0, 2) == 0 ? 0 : pick(48, 192);
  sc.prefill_chunk_tokens = pick(0, 1) == 0 ? 0 : 32;
  sc.sampling_n = pick(0, 3) == 0 ? 2 : 1;

  if (pick(0, 1) == 1) {  // hashed prefix cache + shared-prefix traffic
    sc.prefix_cache.enabled = true;
    sc.shared_prefix_tokens = pick(1, 4) * 16;
    sc.shared_prefix_groups = pick(1, 3);
    sc.shared_prefix_share = pickd(0.3, 1.0);
  }
  if (pick(0, 2) == 0) {  // speculative decoding
    sc.speculation.depth = pick(1, 3);
    sc.speculation.acceptance = pickd(0.5, 0.9);
  }
  if (pick(0, 2) == 0) {  // streaming SLOs (shedding + violations)
    sc.slo.ttft_deadline_ms = pickd(50.0, 500.0);
    sc.slo.tpot_deadline_ms = pickd(5.0, 50.0);
  }
  if (pick(0, 1) == 1) {  // multi-tenant mix
    const index_t tenants = pick(2, 3);
    for (index_t t = 0; t < tenants; ++t) {
      sched::TenantSpec spec;
      spec.id = t;
      spec.name = "t";
      spec.name += std::to_string(t);
      spec.weight = pickd(0.5, 2.0);
      sc.tenants.push_back(spec);
    }
  }

  // Cluster shape: unified fleet of 1-3 replicas (widened below), or
  // disaggregated prefill/decode pools with engine-derived transfer
  // pricing.
  if (pick(0, 2) == 0) {
    sc.cluster.disagg.enabled = true;
    sc.cluster.disagg.prefill_replicas = pick(1, 2);
    sc.cluster.disagg.decode_replicas = pick(1, 2);
  } else {
    sc.cluster.replicas = pick(1, 3);
    sc.cluster.placement =
        std::array{cluster::Placement::kRoundRobin,
                   cluster::Placement::kLeastLoaded,
                   cluster::Placement::kSessionAffinity}[pick(0, 2)];
  }

  // Drawn after every dimension above, so each seed keeps the values
  // those draws always had. Unified fleets may widen to 4-8 replicas
  // (many busy replicas tying on the clock) and run the autoscaler
  // (add, drain and retire); never under disaggregation, whose pool
  // sizes are fixed — there the prefill pool's placement is drawn
  // instead. Seeds with neither SLOs nor a KV budget may get a tight
  // TTFT deadline, so shedding (a request leaving a replica unserved) is
  // common without thinning out the preemption-heavy tight-KV seeds.
  const bool widen = pick(0, 2) == 0;
  const index_t wide_replicas = pick(4, 8);
  const bool autoscale = pick(0, 2) == 0;
  const index_t headroom = pick(0, 4);
  const double interval_s = pickd(0.25, 1.5);
  const double scale_up = pickd(0.5, 4.0);
  const double scale_down = scale_up * pickd(0.0, 0.5);
  const bool snap_arrivals = pick(0, 1) == 1;
  const double arrival_grid_s = pickd(0.05, 0.5);
  const auto prefill_placement =
      std::array{cluster::Placement::kRoundRobin,
                 cluster::Placement::kLeastLoaded,
                 cluster::Placement::kSessionAffinity}[pick(0, 2)];
  const bool tight_ttft = pick(0, 2) == 0;
  const double tight_ttft_ms = pickd(30.0, 120.0);
  if (tight_ttft && !sc.slo.enabled() && sc.kv_blocks == 0) {
    sc.slo.ttft_deadline_ms = tight_ttft_ms;
  }
  if (sc.cluster.disagg.enabled) {
    sc.cluster.placement = prefill_placement;
  } else {
    if (widen) sc.cluster.replicas = wide_replicas;
    if (autoscale) {
      cluster::AutoscalerConfig& as = sc.cluster.autoscaler;
      as.enabled = true;
      as.min_replicas = 1;
      as.max_replicas =
          std::min<index_t>(8, sc.cluster.replicas + headroom);
      as.interval_s = interval_s;
      as.scale_up_queue_per_replica = scale_up;
      as.scale_down_queue_per_replica = scale_down;
    }
  }

  // Edge sizes, drawn after everything above so every seed keeps the
  // configuration those draws always gave it: 1-token outputs (the
  // prefill emits the only token), a KV budget exactly at the never-fits
  // boundary of the nominal request (its lifetime blocks plus the
  // admission watermark — larger ShareGPT draws are rejected, the
  // nominal one fits alone), and on a few seeds about 1e4 arrivals at
  // one instant (the differential traces snap every arrival to t = 0).
  const bool one_token_outputs = pick(0, 9) == 0;
  const bool kv_at_boundary = pick(0, 9) == 0;
  const bool same_instant_burst = pick(0, 49) == 0;
  if (one_token_outputs) sc.output_tokens = 1;
  double grid_s = snap_arrivals ? arrival_grid_s : 0.0;
  if (same_instant_burst) {
    // FCFS: the sorted policies re-sort the whole queue on every tick, so
    // a 1e4-deep queue would cost them seconds per run. Poisson arrivals
    // keep the count near 1e4 (a bursty trace's ON windows can triple it).
    sc.policy = sched::SchedPolicy::kFcfs;
    if (sc.shape == sched::WorkloadShape::kBursty) {
      sc.shape = sched::WorkloadShape::kPoisson;
    }
    sc.qps = 1e4 / sc.duration_s;
    grid_s = 2.0 * sc.duration_s;
  }

  // Tensor/pipeline sharding through ParallelEngine on about 1 seed in 5,
  // drawn last so every seed keeps the configuration above. The draws
  // are unconditional, so the stream position never depends on them.
  const bool sharded = pick(0, 4) == 0;
  const int tp = std::array{1, 2, 4}[pick(0, 2)];
  const int pp = pick(1, 2);
  const int microbatches = pick(0, 4);
  const int comm_buckets = std::array{1, 2, 4}[pick(0, 2)];
  if (sharded) sc.parallel = {tp, pp, microbatches, comm_buckets};
  // About 1 seed in 6 derives its KV budget from HBM (`kv_blocks = -1`),
  // on sharded and single-device grids alike, so the weight charge every
  // rank's budget comes from is fuzzed. Drawn last for the same reason;
  // never on the seeds pinned at the never-fits boundary.
  const bool derived_budget = pick(0, 5) == 0;
  if (derived_budget && !kv_at_boundary) sc.kv_blocks = -1;
  // On about half the prefix-cache seeds, a small cap on the blocks parked
  // in the LRU (the CLI's `--prefix-cache-blocks`), so the cap evicts as
  // well as KV pressure does. Drawn last for the same reason.
  const bool cap_cache = pick(0, 1) == 0;
  const index_t cache_cap = pick(1, 8);
  if (cap_cache && sc.prefix_cache.enabled) {
    sc.prefix_cache.max_cached_blocks = cache_cap;
  }
  // The KV block size (the CLI's `--kv-block-size`) and, on about half the
  // speculation seeds, a named draft model (`--draft-model`) in place of
  // the TinyLlama default. Drawn last for the same reason.
  sc.kv_block_size = std::array<index_t, 3>{8, 16, 32}[pick(0, 2)];
  const bool named_draft = pick(0, 1) == 0;
  if (named_draft && sc.speculation.enabled()) sc.draft_model = llama2_7b();
  // The never-fits boundary, at the drawn block size.
  sched::Request nominal(0, 0.0, sc.input_tokens + sc.shared_prefix_tokens,
                         sc.output_tokens);
  nominal.num_sequences = sc.sampling_n;
  const index_t lifetime = nominal.max_kv_blocks(sc.kv_block_size);
  if (kv_at_boundary && !same_instant_burst) {
    index_t budget = lifetime;
    const auto watermark = [&](index_t blocks) {
      sched::BlockManagerConfig bm;
      bm.block_size = sc.kv_block_size;
      bm.num_blocks = blocks;
      return sched::BlockManager(bm).watermark_blocks();
    };
    while (lifetime + watermark(budget) > budget) ++budget;
    sc.kv_blocks = budget;
  }
  // About 1 seed in 8: WFQ quota contention on one replica, without
  // speculation. Two tenants hold soft quotas of a quarter of a budget
  // of about four nominal lifetimes, so decode-growth preemption takes
  // the most over-quota tenant's request, often from before the request
  // whose growth failed. Drawn last for the same reason.
  if (pick(0, 7) == 0 && !same_instant_burst && !sc.cluster.disagg.enabled) {
    sc.policy = sched::SchedPolicy::kWeightedFair;
    sc.speculation = {};
    sc.cluster.replicas = 1;
    sc.cluster.autoscaler = {};
    sc.kv_blocks = 4 * lifetime + 2;
    sc.tenants.assign(2, sched::TenantSpec{});
    for (index_t t = 0; t < 2; ++t) {
      sc.tenants[t].id = t;
      sc.tenants[t].kv_block_quota = sc.kv_blocks / 4;
    }
  }
  return FuzzCase{sc, grid_s};
}

// The two halves of the run ledger, for whole-struct comparisons.
const sched::RunCounters& run_part(const sched::RunCounters& c) { return c; }
const sched::KvCounters& kv_part(const sched::KvCounters& c) { return c; }

void check_invariants(const cluster::ClusterStats& cs, std::uint64_t seed) {
  const sched::SchedStats& st = cs.sched;
  const auto offered = static_cast<index_t>(st.requests.size());

  // ---- no KV leaks anywhere in the fleet -------------------------------
  // Allocated minus freed is the live count, so it is the leak too.
  for (const auto& rep : cs.replicas) {
    EXPECT_EQ(rep.leaked_kv_blocks, 0)
        << "seed " << seed << ": replica " << rep.id << " leaked KV blocks";
    EXPECT_EQ(rep.kv_blocks_allocated - rep.kv_blocks_freed,
              rep.leaked_kv_blocks)
        << "seed " << seed << ": replica " << rep.id;
  }

  // ---- request conservation --------------------------------------------
  EXPECT_EQ(st.metrics.completed + st.rejected + st.shed, offered)
      << "seed " << seed;
  index_t completed = 0;
  index_t rejected = 0;
  index_t shed = 0;
  index_t generated_total = 0;
  for (const auto& r : st.requests) {
    EXPECT_TRUE(r.finished()) << "seed " << seed << ": request " << r.id
                              << " never reached a terminal state";
    EXPECT_FALSE(r.rejected && r.shed) << "seed " << seed;
    if (r.rejected) {
      ++rejected;
    } else if (r.shed) {
      ++shed;
    } else {
      ++completed;
      generated_total += r.generated;
      // ---- monotone time ----------------------------------------------
      EXPECT_GE(r.first_token_s, r.arrival_s) << "seed " << seed;
      EXPECT_GE(r.finish_s, r.first_token_s) << "seed " << seed;
      EXPECT_LE(r.finish_s, st.sim_end_s) << "seed " << seed;
      EXPECT_EQ(r.generated, r.output_tokens) << "seed " << seed;
    }
  }
  EXPECT_EQ(completed, st.metrics.completed) << "seed " << seed;
  EXPECT_EQ(rejected, st.rejected) << "seed " << seed;
  EXPECT_EQ(shed, st.shed) << "seed " << seed;

  // ---- per-replica clocks inside the run window ------------------------
  for (const auto& rep : cs.replicas) {
    EXPECT_GE(rep.clock_s, 0.0) << "seed " << seed;
    EXPECT_LE(rep.clock_s, st.sim_end_s) << "seed " << seed;
  }

  // ---- per-tenant splits sum back to fleet totals ----------------------
  index_t tenant_completed = 0;
  index_t tenant_rejected = 0;
  index_t tenant_preempt = 0;
  index_t tenant_tokens = 0;
  for (const auto& t : sched::per_tenant_metrics(st)) {
    tenant_completed += t.completed;
    tenant_rejected += t.rejected;
    tenant_preempt += t.preemptions;
    tenant_tokens += t.output_tokens;
  }
  EXPECT_EQ(tenant_completed, st.metrics.completed) << "seed " << seed;
  EXPECT_EQ(tenant_rejected, st.rejected) << "seed " << seed;
  EXPECT_EQ(tenant_preempt, st.preemptions) << "seed " << seed;
  EXPECT_EQ(tenant_tokens, generated_total) << "seed " << seed;

  // ---- the rows sum to the fleet's ledger ------------------------------
  // No counter lives outside a replica's ledger.
  sched::RunCounters run_sum;
  sched::KvCounters kv_sum;
  for (const auto& rep : cs.replicas) {
    run_sum += rep;
    kv_sum += rep;
  }
  EXPECT_EQ(run_sum, run_part(st)) << "seed " << seed;
  EXPECT_EQ(kv_sum, kv_part(st)) << "seed " << seed;

  // ---- placement and handoffs (inert unless disaggregated) -------------
  // Every request is routed exactly once; every handoff lands; and only a
  // handoff reaches the decode pool, so the requests that end there are
  // the handoffs received.
  EXPECT_EQ(st.routed, offered) << "seed " << seed;
  EXPECT_EQ(st.migrated_out, st.migrated_in) << "seed " << seed;
  index_t ended_in_decode_pool = 0;
  for (const auto& r : st.requests) {
    ASSERT_GE(r.replica, 0) << "seed " << seed << ": request " << r.id;
    const auto& rep = cs.replicas[static_cast<std::size_t>(r.replica)];
    ended_in_decode_pool += rep.role == cluster::ReplicaRole::kDecode ? 1 : 0;
  }
  EXPECT_EQ(ended_in_decode_pool, st.migrated_in) << "seed " << seed;
  EXPECT_GE(cs.transfer_seconds, 0.0) << "seed " << seed;
}

// Field-by-field equality of two runs' complete ClusterStats: every
// counter, every metric double, every per-replica record and every
// request's outcome.
void expect_same_cluster_stats(const cluster::ClusterStats& a,
                               const cluster::ClusterStats& b,
                               std::uint64_t seed) {
  const sched::SchedStats& x = a.sched;
  const sched::SchedStats& y = b.sched;
  EXPECT_EQ(x.metrics, y.metrics) << seed;
  EXPECT_EQ(run_part(x), run_part(y)) << seed;
  EXPECT_EQ(kv_part(x), kv_part(y)) << seed;
  EXPECT_EQ(x.peak_kv_blocks, y.peak_kv_blocks) << seed;
  EXPECT_EQ(x.sim_end_s, y.sim_end_s) << seed;
  ASSERT_EQ(x.requests.size(), y.requests.size()) << seed;
  for (std::size_t i = 0; i < x.requests.size(); ++i) {
    const sched::Request& p = x.requests[i];
    const sched::Request& q = y.requests[i];
    EXPECT_EQ(p.first_token_s, q.first_token_s) << seed << " request " << i;
    EXPECT_EQ(p.finish_s, q.finish_s) << seed << " request " << i;
    EXPECT_EQ(p.replica, q.replica) << seed << " request " << i;
    EXPECT_EQ(p.preemptions, q.preemptions) << seed << " request " << i;
    EXPECT_EQ(p.generated, q.generated) << seed << " request " << i;
    EXPECT_EQ(p.state, q.state) << seed << " request " << i;
    EXPECT_EQ(p.rejected, q.rejected) << seed << " request " << i;
    EXPECT_EQ(p.shed, q.shed) << seed << " request " << i;
  }

  ASSERT_EQ(a.replicas.size(), b.replicas.size()) << seed;
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    const cluster::ReplicaStats& p = a.replicas[i];
    const cluster::ReplicaStats& q = b.replicas[i];
    EXPECT_EQ(p.id, q.id) << seed << " replica " << i;
    EXPECT_EQ(p.lifecycle, q.lifecycle) << seed << " replica " << i;
    EXPECT_EQ(p.role, q.role) << seed << " replica " << i;
    EXPECT_EQ(p.clock_s, q.clock_s) << seed << " replica " << i;
    EXPECT_EQ(p.completed, q.completed) << seed << " replica " << i;
    EXPECT_EQ(run_part(p), run_part(q)) << seed << " replica " << i;
    EXPECT_EQ(kv_part(p), kv_part(q)) << seed << " replica " << i;
    EXPECT_EQ(p.peak_kv_blocks, q.peak_kv_blocks) << seed << " replica " << i;
    EXPECT_EQ(p.leaked_kv_blocks, q.leaked_kv_blocks)
        << seed << " replica " << i;
  }
  EXPECT_EQ(a.replicas_added, b.replicas_added) << seed;
  EXPECT_EQ(a.replicas_drained, b.replicas_drained) << seed;
  EXPECT_EQ(a.autoscaler_evaluations, b.autoscaler_evaluations) << seed;
  EXPECT_EQ(a.peak_replicas, b.peak_replicas) << seed;
  EXPECT_EQ(a.transfer_bytes, b.transfer_bytes) << seed;
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds) << seed;
}

// Every `marlin_*_total` series of a metrics exposition, as printed
// (`name` or `name{labels}` -> value text).
std::map<std::string, std::string> exported_totals(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    const std::string series = line.substr(0, space);
    const std::string name = series.substr(0, series.find('{'));
    if (name.ends_with("_total")) out[series] = line.substr(space + 1);
  }
  return out;
}

// What each exported run total must read: the ClusterStats field it is
// derived from, formatted the way the exposition prints values.
std::map<std::string, std::string> expected_totals(
    const cluster::ClusterStats& cs) {
  const sched::SchedStats& st = cs.sched;
  index_t retired = 0;
  for (const cluster::ReplicaStats& rep : cs.replicas) {
    retired += rep.lifecycle == cluster::ReplicaLifecycle::kRetired ? 1 : 0;
  }
  const auto v = [](double x) { return obs::format_metric_value(x); };
  const auto n = [&v](index_t x) { return v(static_cast<double>(x)); };
  std::map<std::string, std::string> out = {
      {"marlin_requests_routed_total", n(st.routed)},
      {"marlin_requests_completed_total", n(st.metrics.completed)},
      {"marlin_requests_rejected_total", n(st.rejected)},
      {"marlin_requests_shed_total", n(st.shed)},
      {"marlin_preemptions_total", n(st.preemptions)},
      {"marlin_prefill_steps_total", n(st.prefill_steps)},
      {"marlin_decode_steps_total", n(st.decode_steps)},
      {"marlin_spec_rounds_total", n(st.spec_rounds)},
      {"marlin_spec_draft_tokens_total", n(st.spec_draft_tokens)},
      {"marlin_spec_committed_tokens_total", n(st.spec_committed_tokens)},
      {"marlin_prefix_cache_hits_total", n(st.prefix_cache_hits)},
      {"marlin_prefix_cache_hit_blocks_total", n(st.prefix_cache_hit_blocks)},
      {"marlin_prefix_tokens_skipped_total", n(st.prefix_tokens_skipped)},
      {"marlin_prefix_cache_lookup_blocks_total",
       n(st.prefix_cache_lookup_blocks)},
      {"marlin_prefix_cache_evictions_total", n(st.prefix_cache_evictions)},
      {"marlin_cow_forks_total", n(st.cow_forks)},
      {"marlin_cow_copies_total", n(st.cow_copies)},
      {"marlin_slo_ttft_violations_total", n(st.slo_ttft_violations)},
      {"marlin_slo_tpot_violations_total", n(st.slo_tpot_violations)},
      {"marlin_kv_transfers_total", n(st.migrated_out)},
      {"marlin_kv_transfer_bytes_total", v(cs.transfer_bytes)},
      {"marlin_kv_transfer_seconds_total", v(cs.transfer_seconds)},
      {"marlin_kv_blocks_allocated_total", n(st.kv_blocks_allocated)},
      {"marlin_kv_blocks_freed_total", n(st.kv_blocks_freed)},
      {"marlin_kv_grow_failures_total", n(st.kv_grow_failures)},
      {"marlin_replicas_started_total",
       v(static_cast<double>(cs.replicas.size()))},
      {"marlin_replicas_drained_total", n(cs.replicas_drained)},
      {"marlin_replicas_retired_total", n(retired)},
      {"marlin_autoscaler_evaluations_total", n(cs.autoscaler_evaluations)},
  };
  for (const sched::TenantMetrics& t : sched::per_tenant_metrics(st)) {
    if (t.completed == 0) continue;
    out["marlin_tenant_tokens_generated_total{tenant=\"" +
        std::to_string(t.tenant) + "\"}"] = n(t.output_tokens);
  }
  return out;
}

// Token conservation, from the definitions alone: prefill emits a
// request's first token, and every later one comes out of a decode step
// in which each of its n sequences takes one batch slot. So the tokens
// past the first, over requests and sequences, are the exposition's
// summed decode batch, or under speculation its committed tokens. A
// preemption keeps `generated`, so a batch slot counted for a victim
// that left before the step breaks the identity.
void expect_tokens_conserved(const cluster::ClusterStats& cs,
                             const std::string& exposition, bool speculative,
                             std::uint64_t seed) {
  index_t decoded = 0;
  for (const sched::Request& r : cs.sched.requests) {
    decoded += r.num_sequences * std::max<index_t>(0, r.generated - 1);
  }
  const std::string line =
      std::string("\n") +
      (speculative ? "marlin_spec_committed_tokens_total"
                   : "marlin_decode_batch_sum") +
      ' ' + obs::format_metric_value(static_cast<double>(decoded)) + '\n';
  EXPECT_NE(exposition.find(line), std::string::npos)
      << "seed " << seed << ": no `" << line << "` in the exposition";
}

/// One replica's run over a trace, driven tick by tick the way the
/// EventLoop drives a single busy replica: deliver every arrival up to
/// the replica's clock (jumping the idle clock to the next arrival), then
/// `tick`, the admission pass and step under test.
struct ReplicaRun {
  std::vector<sched::Request> requests;
  sched::ReplicaState state;
};

template <typename Tick>
ReplicaRun run_one_replica(const sched::Scheduler& scheduler,
                           const std::vector<sched::TraceRequest>& trace,
                           const Tick& tick) {
  ReplicaRun run{sched::requests_from_trace(trace),
                 scheduler.make_replica_state()};
  std::vector<sched::Request>& requests = run.requests;
  sched::ReplicaState& s = run.state;
  std::size_t next = 0;
  while (true) {
    if (!s.busy()) {
      if (next == requests.size()) break;
      s.now = std::max(s.now, requests[next].arrival_s);
    }
    for (; next < requests.size() && requests[next].arrival_s <= s.now;
         ++next) {
      requests[next].replica = 0;
      s.queue.push_back(next);
      s.outstanding_tokens += requests[next].owed_tokens();
    }
    tick(s, requests);
  }
  return run;
}

// Bit-equality of two single-replica runs: every request's outcome and
// the replica's counters.
void expect_same_replica_run(const ReplicaRun& a, const ReplicaRun& b,
                             std::uint64_t seed) {
  ASSERT_EQ(a.requests.size(), b.requests.size()) << seed;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const sched::Request& p = a.requests[i];
    const sched::Request& q = b.requests[i];
    EXPECT_EQ(p.first_token_s, q.first_token_s) << seed << " request " << i;
    EXPECT_EQ(p.finish_s, q.finish_s) << seed << " request " << i;
    EXPECT_EQ(p.preemptions, q.preemptions) << seed << " request " << i;
    EXPECT_EQ(p.generated, q.generated) << seed << " request " << i;
    EXPECT_EQ(p.shed, q.shed) << seed << " request " << i;
    EXPECT_EQ(p.rejected, q.rejected) << seed << " request " << i;
    EXPECT_EQ(p.state, q.state) << seed << " request " << i;
  }
  const sched::ReplicaState& x = a.state;
  const sched::ReplicaState& y = b.state;
  EXPECT_EQ(x.now, y.now) << seed;
  EXPECT_EQ(x.batch_weighted, y.batch_weighted) << seed;
  EXPECT_EQ(x.decode_time_total, y.decode_time_total) << seed;
  ASSERT_EQ(x.service.size(), y.service.size()) << seed;
  for (index_t t = 0; t < static_cast<index_t>(x.service.size()); ++t) {
    EXPECT_EQ(x.served_tokens(t), y.served_tokens(t)) << seed << ' ' << t;
  }
  // `decode_visits` counts the real decode round's work; the reference
  // step visits every request and counts nothing.
  sched::RunCounters x_run = x;
  sched::RunCounters y_run = y;
  x_run.decode_visits = y_run.decode_visits = 0;
  EXPECT_EQ(x_run, y_run) << seed;
  EXPECT_EQ(x.bm.counters(), y.bm.counters()) << seed;
  EXPECT_EQ(x.bm.peak_used_blocks(), y.bm.peak_used_blocks()) << seed;
  EXPECT_EQ(x.outstanding_tokens, y.outstanding_tokens) << seed;
  EXPECT_EQ(x.outstanding_tokens, 0) << seed;
  EXPECT_EQ(x.bm.used_blocks(), 0) << seed;
}

TEST(ClusterFuzz, InvariantsHoldAcrossTheSeedSweep) {
  const index_t seeds = seed_count();
  // Coverage of the paths the event queue and the retire check must get
  // right, tallied over the sweep.
  index_t wide_fleets = 0;
  index_t autoscaler_adds = 0;
  index_t autoscaler_retires = 0;
  index_t sharded = 0;
  index_t derived_sharded = 0;
  index_t derived_single = 0;
  index_t capped_cache_evictions = 0;
  index_t odd_block_sizes = 0;
  index_t named_drafts = 0;
  index_t rejecting = 0;
  index_t shedding = 0;
  index_t quota_preempting = 0;
  for (index_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzCase fc = case_for_seed(seed);
    const ServingConfig& sc = fc.sc;
    Simulation sim(fuzz_engine(), sc);
    const cluster::ClusterStats cs = sim.run();
    check_invariants(cs, seed);
    EXPECT_GT(cs.sched.requests.size(), 0u) << "seed " << seed;

    // The same run with a recorder attached to both sinks: recording
    // changes nothing, and the exposition's run totals are the stats'.
    {
      obs::TraceRecorder trace;
      obs::MetricsRegistry metrics;
      obs::ServeRecorder recorder(&trace, &metrics);
      ServingConfig recorded = sc;
      recorded.recorder = &recorder;
      const cluster::ClusterStats rs =
          simulate_cluster_detailed(fuzz_engine(), recorded);
      expect_same_cluster_stats(cs, rs, seed);
      const std::string exposition = metrics.expose();
      EXPECT_EQ(exported_totals(exposition), expected_totals(rs))
          << "seed " << seed;
      expect_tokens_conserved(rs, exposition, sc.speculation.enabled(), seed);
    }

    // Differential oracle, every seed: the optimized loop against the
    // linear-scan reference on identical inputs, on some seeds
    // with the arrivals snapped to a grid first.
    std::optional<cluster::ClusterStats> snapped;
    if (fc.arrival_grid_s > 0) {
      for (sched::TraceRequest& r : sim.trace) {
        r.arrival_s = std::floor(r.arrival_s / fc.arrival_grid_s) *
                      fc.arrival_grid_s;
      }
      snapped = sim.run();
      check_invariants(*snapped, seed);
    }
    expect_same_cluster_stats(
        snapped ? *snapped : cs,
        cluster::reference::run(sim.scheduler(), sim.options(), sim.trace),
        seed);
    // Admission differential, every seed: the trace on one FCFS replica,
    // admitted by the scheduler and by the frozen queue-snapshot copy.
    {
      ServingConfig one = sc;
      one.policy = sched::SchedPolicy::kFcfs;
      const Simulation fcfs(fuzz_engine(), one);
      const sched::Scheduler& scheduler = fcfs.scheduler();
      expect_same_replica_run(
          run_one_replica(scheduler, sim.trace,
                          [&](sched::ReplicaState& s,
                              std::vector<sched::Request>& requests) {
                            scheduler.admit(s, requests);
                            scheduler.step(s, requests);
                          }),
          run_one_replica(scheduler, sim.trace,
                          [&](sched::ReplicaState& s,
                              std::vector<sched::Request>& requests) {
                            sched::reference::admit(scheduler, s, requests);
                            scheduler.step(s, requests);
                          }),
          seed);
    }
    // Step differential, every seed: the trace on one replica under the
    // seed's own scheduler, ticked by the scheduler and by the frozen
    // admission plus the frozen step (never mixed on one ReplicaState).
    {
      const sched::Scheduler& scheduler = sim.scheduler();
      expect_same_replica_run(
          run_one_replica(scheduler, sim.trace,
                          [&](sched::ReplicaState& s,
                              std::vector<sched::Request>& requests) {
                            scheduler.admit(s, requests);
                            scheduler.step(s, requests);
                          }),
          run_one_replica(scheduler, sim.trace,
                          [&](sched::ReplicaState& s,
                              std::vector<sched::Request>& requests) {
                            sched::reference::admit(scheduler, s, requests);
                            sched::reference::step(scheduler, s, requests);
                          }),
          seed);
    }
    // Every 8th seed: the run must reproduce bit-for-bit from scratch.
    if (seed % 8 == 0) {
      expect_same_cluster_stats(cs, simulate_cluster_detailed(fuzz_engine(), sc),
                           seed);
    }
    if (HasFatalFailure()) return;
    wide_fleets += cs.replicas.size() >= 4 ? 1 : 0;
    sharded += sc.parallel.trivial() ? 0 : 1;
    if (sc.kv_blocks < 0) {
      ++(sc.parallel.trivial() ? derived_single : derived_sharded);
    }
    if (sc.prefix_cache.max_cached_blocks > 0 &&
        cs.sched.prefix_cache_evictions > 0) {
      ++capped_cache_evictions;
    }
    odd_block_sizes += sc.kv_block_size != 16 ? 1 : 0;
    named_drafts +=
        sc.speculation.enabled() && !sc.draft_model.name.empty() ? 1 : 0;
    rejecting += cs.sched.rejected > 0 ? 1 : 0;
    shedding += cs.sched.shed > 0 ? 1 : 0;
    const bool quoted = !sc.tenants.empty() &&
                        sc.tenants[0].kv_block_quota != sched::kNoQuota;
    quota_preempting += quoted && cs.sched.kv_grow_failures > 0 ? 1 : 0;
    autoscaler_adds += cs.replicas_added > 0 ? 1 : 0;
    for (const cluster::ReplicaStats& rep : cs.replicas) {
      if (rep.lifecycle == cluster::ReplicaLifecycle::kRetired) {
        ++autoscaler_retires;
        break;
      }
    }
  }
  // The full sweep must actually reach those paths (a narrowed
  // MARLIN_FUZZ_SEEDS subset may not).
  if (seeds >= 200) {
    EXPECT_GT(wide_fleets, 0);
    EXPECT_GT(autoscaler_adds, 0);
    EXPECT_GT(autoscaler_retires, 0);
    EXPECT_GT(sharded, 0);
    EXPECT_GT(derived_sharded, 0);
    EXPECT_GT(derived_single, 0);
    EXPECT_GT(capped_cache_evictions, 0);
    EXPECT_GT(odd_block_sizes, 0);
    EXPECT_GT(named_drafts, 0);
    EXPECT_GT(rejecting, 0);
    EXPECT_GT(shedding, 0);
    EXPECT_GT(quota_preempting, 0);
  }
}

}  // namespace
}  // namespace marlin::serve
