#include "serve/server_sim.hpp"

#include <algorithm>
#include <memory>

#include "serve/parallel/interconnect.hpp"
#include "util/error.hpp"

namespace marlin::serve {

namespace {

// The workload the trace is generated from, tenant traffic shares
// scattered by tenant id. Validates every tenant spec.
sched::WorkloadConfig workload_config(const ServingConfig& cfg) {
  sched::WorkloadConfig w;
  w.shape = cfg.shape;
  w.qps = cfg.qps;
  w.duration_s = cfg.duration_s;
  w.input_tokens = cfg.input_tokens;
  w.output_tokens = cfg.output_tokens;
  w.seed = cfg.seed;
  w.shared_prefix_tokens = cfg.shared_prefix_tokens;
  w.shared_prefix_groups = cfg.shared_prefix_groups;
  w.shared_prefix_share = cfg.shared_prefix_share;
  w.sampling_n = cfg.sampling_n;

  // Tenant mix: `tenant_shares[i]` is tenant id i's share, so scatter the
  // specs' traffic shares by id (ids need not be dense).
  if (!cfg.tenants.empty()) {
    index_t max_id = 0;
    for (const auto& t : cfg.tenants) {
      t.validate();
      MARLIN_CHECK(t.id < 4096, "tenant id " << t.id << " unreasonably large");
      max_id = std::max(max_id, t.id);
    }
    w.tenant_shares.assign(static_cast<std::size_t>(max_id) + 1, 0.0);
    for (const auto& t : cfg.tenants) {
      w.tenant_shares[static_cast<std::size_t>(t.id)] = t.traffic_share;
    }
  }
  return w;
}

// The scheduler configuration over the configured KV budget; a negative
// one is derived from HBM on every rank of `grid`, and the binding rank's
// wins. Validates the prefix-cache config.
sched::SchedulerConfig scheduler_config(const ServingConfig& cfg,
                                        const parallel::ParallelEngine& grid) {
  sched::SchedulerConfig sc;
  sc.policy = cfg.policy;
  sc.max_batch = cfg.max_batch;
  sc.prefill_chunk_tokens = cfg.prefill_chunk_tokens;
  sc.blocks.block_size = cfg.kv_block_size;
  sc.blocks.num_blocks = cfg.kv_blocks >= 0
                             ? cfg.kv_blocks
                             : grid.min_kv_block_budget(cfg.kv_block_size);
  cfg.prefix_cache.validate();
  sc.blocks.prefix_cache = cfg.prefix_cache;
  sc.tenants = cfg.tenants;
  sc.speculation = cfg.speculation;
  sc.slo = cfg.slo;
  return sc;
}

// The draft engine shares the target's device, format and clocks — only
// the model differs (TinyLlama-1.1B unless configured). It stays on a
// single device even when the target verifies across a rank grid.
std::unique_ptr<const Engine> draft_engine(const Engine& engine,
                                           const ServingConfig& cfg) {
  if (!cfg.speculation.enabled()) return nullptr;
  EngineConfig dcfg = engine.config();
  dcfg.model =
      cfg.draft_model.name.empty() ? tinyllama_1_1b() : cfg.draft_model;
  return std::make_unique<const Engine>(dcfg);
}

// Disaggregated pools: price unset transfer-link fields from the engine
// (KV footprint per token) and the device's interconnect, so callers
// only opt in to the pool shape and get physical pricing for free. An
// explicit non-zero value always wins.
cluster::ClusterOptions priced_options(const Engine& engine,
                                       const ServingConfig& cfg) {
  cluster::ClusterOptions copts = cfg.cluster;
  if (copts.disagg.enabled) {
    if (copts.disagg.kv_bytes_per_token <= 0) {
      copts.disagg.kv_bytes_per_token = engine.kv_bytes_per_token();
    }
    if (copts.disagg.link_bytes_per_s <= 0 &&
        copts.disagg.link_latency_s <= 0) {
      const parallel::Interconnect link =
          parallel::Interconnect::of(engine.config().gpu);
      copts.disagg.link_bytes_per_s = link.bytes_per_s;
      copts.disagg.link_latency_s = link.latency_s;
    }
  }
  return copts;
}

}  // namespace

Simulation::Simulation(const Engine& engine, const ServingConfig& cfg)
    : trace(sched::generate_trace(workload_config(cfg))),
      model_(engine, cfg.parallel),
      draft_(draft_engine(engine, cfg)),
      scheduler_(model_, scheduler_config(cfg, model_), draft_.get()),
      options_(priced_options(engine, cfg)),
      recorder_(cfg.recorder) {}

cluster::ClusterStats Simulation::run() const {
  return cluster::EventLoop(scheduler_, options_).run(trace, recorder_);
}

cluster::ClusterStats simulate_cluster_detailed(const Engine& engine,
                                                const ServingConfig& cfg) {
  return Simulation(engine, cfg).run();
}

}  // namespace marlin::serve
