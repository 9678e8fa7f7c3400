#include "serve/server_sim.hpp"

#include <algorithm>
#include <optional>

#include "serve/parallel/interconnect.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "util/error.hpp"

namespace marlin::serve {

sched::WorkloadConfig ServingConfig::workload() const {
  sched::WorkloadConfig w;
  w.shape = shape;
  w.qps = qps;
  w.duration_s = duration_s;
  w.input_tokens = input_tokens;
  w.output_tokens = output_tokens;
  w.seed = seed;
  w.shared_prefix_tokens = shared_prefix_tokens;
  w.shared_prefix_groups = shared_prefix_groups;
  w.shared_prefix_share = shared_prefix_share;
  w.sampling_n = sampling_n;

  // Tenant mix: `tenant_shares[i]` is tenant id i's share, so scatter the
  // specs' traffic shares by id (ids need not be dense).
  if (!tenants.empty()) {
    index_t max_id = 0;
    for (const auto& t : tenants) {
      t.validate();
      MARLIN_CHECK(t.id < 4096, "tenant id " << t.id << " unreasonably large");
      max_id = std::max(max_id, t.id);
    }
    w.tenant_shares.assign(static_cast<std::size_t>(max_id) + 1, 0.0);
    for (const auto& t : tenants) {
      w.tenant_shares[static_cast<std::size_t>(t.id)] = t.traffic_share;
    }
  }
  return w;
}

sched::SchedulerConfig ServingConfig::scheduler(index_t kv_blocks) const {
  sched::SchedulerConfig sc;
  sc.policy = policy;
  sc.max_batch = max_batch;
  sc.prefill_chunk_tokens = prefill_chunk_tokens;
  sc.blocks.block_size = kv_block_size;
  sc.blocks.num_blocks = kv_blocks;
  prefix_cache.validate();
  sc.blocks.prefix_cache = prefix_cache;
  sc.tenants = tenants;
  sc.speculation = speculation;
  sc.slo = slo;
  return sc;
}

cluster::ClusterStats simulate_cluster_detailed(const Engine& engine,
                                                const ServingConfig& cfg) {
  const sched::WorkloadConfig w = cfg.workload();

  // Every grid, tp = pp = 1 included, prices through the per-rank worker
  // model, and the derived KV budget is the binding rank's.
  const parallel::ParallelEngine model(engine, cfg.parallel);
  const index_t kv_blocks =
      cfg.kv_blocks >= 0 ? cfg.kv_blocks
                         : model.min_kv_block_budget(cfg.kv_block_size);

  const sched::SchedulerConfig sc = cfg.scheduler(kv_blocks);

  // The draft engine shares the target's device, format and clocks — only
  // the model differs (TinyLlama-1.1B unless configured). It stays on a
  // single device even when the target verifies across a rank grid.
  std::optional<Engine> draft;
  if (cfg.speculation.enabled()) {
    EngineConfig dcfg = engine.config();
    dcfg.model =
        cfg.draft_model.name.empty() ? tinyllama_1_1b() : cfg.draft_model;
    draft.emplace(dcfg);
  }

  // Disaggregated pools: price unset transfer-link fields from the engine
  // (KV footprint per token) and the device's interconnect, so callers
  // only opt in to the pool shape and get physical pricing for free. An
  // explicit non-zero value always wins.
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

  const sched::Scheduler scheduler(model, sc, draft ? &*draft : nullptr);
  return cluster::EventLoop(scheduler, copts)
      .run(sched::generate_trace(w), cfg.recorder);
}

}  // namespace marlin::serve
