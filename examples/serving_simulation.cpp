// Serving simulation: a vLLM-style server under trace-driven client load,
// comparing weight formats — the paper's §5.2 client-count experiment as a
// runnable tool, now on top of the request-level scheduler subsystem
// (paged KV cache, admission policies, preemption). The three engine
// simulations run concurrently under `--threads N` (fixed seed keeps the
// table deterministic).
//
//   $ ./serving_simulation --model llama-2-7b --device rtxa6000 --qps 5
//   $ ./serving_simulation --model llama-2-70b --device a100 --tp 4 --pp 2
//   $ ./serving_simulation --workload sharegpt --policy sjf --kv-blocks 256
//
// `--tp/--pp/--microbatches` shard the model across a tensor/pipeline-
// parallel rank grid (per-rank workers, interconnect-priced all-reduce and
// activation send/recv).

#include <iostream>
#include <utility>

#include "common.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  const CliArgs args(argc, argv);
  auto help = bench::serving_flag_help(2.5, 120.0);
  help.insert(
      help.begin(),
      {{"--model M", "target model (default llama-2-7b)"},
       {"--device D", "GPU (default rtxa6000)"},
       {"--input-tokens N", "prompt tokens (default 64)"},
       {"--output-tokens N", "output tokens (default 64)"},
       {"--kv-blocks N", "KV budget in blocks (-1 = derive from HBM, 0 = "
                         "unlimited)"},
       {"--kv-block-size N", "tokens per KV block (default 16)"},
       {"--prefill-chunk N", "per-sequence prefill chunk tokens (0 = whole "
                             "prompt)"},
       {"--shared-prefix-tokens N",
        "shared system-prompt length prepended to tagged prompts (0 = "
        "off)"},
       {"--shared-prefix-groups N", "distinct shared headers (default 1)"},
       {"--shared-prefix-share F",
        "fraction of requests carrying a shared header (default 1.0)"},
       {"--sampling-n N", "parallel-sampling width per request (default 1)"},
       {"--tp N", "tensor-parallel degree (default 1)"},
       {"--pp N", "pipeline-parallel degree (default 1)"},
       {"--microbatches N", "pipeline microbatches (0 = one per stage)"},
       {"--comm-buckets N", "all-reduce chunks overlapped with the next "
                            "block's compute (default 1 = serialized)"},
       {"--tenants N", "split traffic over N equal-weight tenants (pair "
                       "with --policy wfq)"},
       {"--spec-depth D", "speculative draft tokens per round (0 = off)"},
       {"--spec-accept A", "per-token draft acceptance (default 0.7)"},
       {"--draft-model M", "draft model (default tinyllama-1.1b)"},
       {"--replicas N", "engine replicas behind the router (default 1)"},
       {"--placement P", "replica placement: round-robin | least-loaded | "
                         "session-affinity"},
       {"--prefill-replicas N",
        "disaggregated pools: prefill-role replicas (pair with "
        "--decode-replicas; overrides --replicas)"},
       {"--decode-replicas N",
        "disaggregated pools: decode-role replicas fed by KV migration"},
       {"--ttft-slo MS", "TTFT deadline ms (shed-on-hopeless; 0 = off)"},
       {"--tpot-slo MS", "TPOT deadline ms (violation accounting; 0 = off)"},
       {"--autoscale", "enable the trace-driven autoscaler"},
       {"--autoscale-max N", "autoscaler replica ceiling (default 8)"},
       {"--trace-out FILE",
        "write a Chrome/Perfetto trace of a serial re-run of this exact "
        "config (MARLIN engine)"}});
  bench::maybe_print_help(
      args, "serving_simulation",
      "trace-driven serving comparison of weight formats (FP16 / MARLIN / "
      "Sparse-MARLIN) on the request-level scheduler",
      std::move(help));
  const SimContext ctx = make_sim_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 2.5, 120.0);
  serve::EngineConfig ecfg;
  ecfg.model = serve::model_by_name(
      args.get_string("model", "llama-2-7b"));
  ecfg.gpu = gpusim::device_by_name(args.get_string("device", "rtxa6000"));

  serve::ServingConfig scfg;
  scfg.qps = cli.qps;
  scfg.duration_s = cli.duration_s;
  scfg.input_tokens = args.get_int("input-tokens", 64);
  scfg.output_tokens = args.get_int("output-tokens", 64);
  scfg.seed = cli.seed;
  cli.apply_prefix_cache(scfg);
  scfg.shape = cli.workload;
  scfg.policy = cli.policy;
  // --kv-blocks: -1 derives the budget from the device HBM next to the
  // weights (per-rank aware under --tp/--pp); 0 keeps it unlimited; any
  // positive count is used as-is.
  scfg.kv_blocks = args.get_int("kv-blocks", 0);
  scfg.kv_block_size = args.get_int("kv-block-size", 16);
  scfg.prefill_chunk_tokens = args.get_int("prefill-chunk", 0);
  scfg.shared_prefix_tokens = args.get_int("shared-prefix-tokens", 0);
  scfg.shared_prefix_groups = args.get_int("shared-prefix-groups", 1);
  scfg.shared_prefix_share = args.get_double("shared-prefix-share", 1.0);
  scfg.sampling_n = args.get_int("sampling-n", 1);
  // The grid fields are ints: range-check before narrowing, or
  // `--tp 4294967298` would run as tp2.
  const auto get_grid_int = [&](const char* name, int fallback) {
    const std::int64_t v = args.get_int(name, fallback);
    MARLIN_CHECK(std::in_range<int>(v), "--" << name << " " << v
                                             << " is out of range");
    return static_cast<int>(v);
  };
  scfg.parallel.tensor_parallel = get_grid_int("tp", 1);
  scfg.parallel.pipeline_parallel = get_grid_int("pp", 1);
  scfg.parallel.microbatches = get_grid_int("microbatches", 0);
  scfg.parallel.comm_buckets = get_grid_int("comm-buckets", 1);
  scfg.parallel.validate();
  // --tenants N: N equal-weight, equal-share tenants — enough to exercise
  // the multi-tenant machinery (see bench_serve_multitenant for tiered
  // mixes with quotas).
  const index_t tenants = args.get_int("tenants", 0);
  MARLIN_CHECK(tenants >= 0, "--tenants must be >= 0 (0 = one tenant)");
  for (index_t t = 0; t < tenants; ++t) {
    sched::TenantSpec spec;
    spec.id = t;
    spec.name = "tenant" + std::to_string(t);
    scfg.tenants.push_back(spec);
  }
  scfg.speculation.depth = args.get_int("spec-depth", 0);
  scfg.speculation.acceptance = args.get_double("spec-accept", 0.7);
  if (args.has("draft-model")) {
    scfg.draft_model =
        serve::model_by_name(args.get_string("draft-model", ""));
  }
  // Cluster shape: replicas behind the router, streaming SLOs, autoscaler.
  // The defaults (1 replica, no SLO) are exactly the legacy single-engine
  // simulation.
  scfg.cluster.replicas = args.get_int("replicas", 1);
  scfg.cluster.placement = serve::cluster::placement_by_name(
      args.get_string("placement", "round-robin"));
  scfg.slo.ttft_deadline_ms = args.get_double("ttft-slo", 0.0);
  scfg.slo.tpot_deadline_ms = args.get_double("tpot-slo", 0.0);
  scfg.cluster.autoscaler.enabled = args.get_bool("autoscale", false);
  scfg.cluster.autoscaler.max_replicas = args.get_int("autoscale-max", 8);
  // Disaggregated pools: --prefill-replicas/--decode-replicas size the
  // fleet directly (KV pricing and the transfer link derive from the
  // engine and device inside simulate_cluster_detailed).
  if (args.has("prefill-replicas") || args.has("decode-replicas")) {
    scfg.cluster.disagg.enabled = true;
    scfg.cluster.disagg.prefill_replicas = args.get_int("prefill-replicas", 1);
    scfg.cluster.disagg.decode_replicas = args.get_int("decode-replicas", 1);
  }

  std::cout << ecfg.model.name << " on " << scfg.parallel.world_size() << "x "
            << ecfg.gpu.name;
  if (!scfg.parallel.trivial()) {
    std::cout << " (" << scfg.parallel.to_string() << ", "
              << ecfg.gpu.interconnect_name << ")";
  }
  std::cout << ", " << scfg.qps << " QPS " << sched::to_string(scfg.shape)
            << ", " << scfg.input_tokens << " in / " << scfg.output_tokens
            << " out, policy " << sched::to_string(scfg.policy);
  if (!scfg.tenants.empty()) {
    std::cout << ", " << scfg.tenants.size() << " tenants";
  }
  if (scfg.speculation.enabled()) {
    std::cout << ", speculative depth " << scfg.speculation.depth
              << " (accept "
              << format_double(scfg.speculation.acceptance, 2) << ", draft "
              << (scfg.draft_model.name.empty()
                      ? serve::tinyllama_1_1b().name  // server_sim's default
                      : scfg.draft_model.name)
              << ")";
  }
  const bool clustered = scfg.cluster.replicas > 1 ||
                         scfg.cluster.autoscaler.enabled ||
                         scfg.cluster.disagg.enabled || scfg.slo.enabled();
  if (clustered) {
    if (scfg.cluster.disagg.enabled) {
      std::cout << ", pools " << scfg.cluster.disagg.prefill_replicas
                << " prefill + " << scfg.cluster.disagg.decode_replicas
                << " decode";
    } else {
      std::cout << ", " << scfg.cluster.replicas << " replicas ("
                << serve::cluster::to_string(scfg.cluster.placement) << ")";
    }
    if (scfg.cluster.autoscaler.enabled) {
      std::cout << ", autoscale<=" << scfg.cluster.autoscaler.max_replicas;
    }
    if (scfg.slo.enabled()) {
      std::cout << ", SLO " << scfg.slo.ttft_deadline_ms << "/"
                << scfg.slo.tpot_deadline_ms << " ms";
    }
  }
  std::cout << "\n\n";

  const std::vector<serve::WeightFormat> formats{
      serve::WeightFormat::kFp16, serve::WeightFormat::kMarlin,
      serve::WeightFormat::kSparseMarlin};
  std::vector<std::vector<std::string>> rows(formats.size());
  std::vector<std::string> cluster_rows(formats.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(formats.size()),
                   [&](std::int64_t i) {
                     auto cfg = ecfg;
                     cfg.format = formats[static_cast<std::size_t>(i)];
                     const serve::Engine engine(cfg);
                     const auto cs =
                         serve::simulate_cluster_detailed(engine, scfg);
                     const auto& st = cs.sched;
                     const auto& m = st.metrics;
                     if (clustered) {
                       std::ostringstream cl;
                       cl << serve::to_string(cfg.format) << ": peak "
                          << cs.peak_replicas << " replicas (+"
                          << cs.replicas_added << "/-" << cs.replicas_drained
                          << " scaled), shed " << st.shed
                          << ", TTFT viol " << st.slo_ttft_violations
                          << ", TPOT viol " << st.slo_tpot_violations;
                       if (st.migrated_out > 0) {
                         cl << ", migrations " << st.migrated_out << " ("
                            << format_bytes(cs.transfer_bytes) << " in "
                            << format_double(cs.transfer_seconds, 3) << " s)";
                       }
                       cluster_rows[static_cast<std::size_t>(i)] = cl.str();
                     }
                     const double weights_per_gpu =
                         serve::parallel::ParallelEngine(engine, scfg.parallel)
                             .max_weight_shard_bytes();
                     rows[static_cast<std::size_t>(i)] = {
                         serve::to_string(cfg.format),
                         format_double(m.mean_tpot_ms, 2),
                         format_double(m.p90_tpot_ms, 2),
                         format_double(m.mean_ttft_ms, 2),
                         format_double(m.p90_ttft_ms, 2),
                         format_double(m.mean_batch, 1),
                         std::to_string(m.completed),
                         std::to_string(st.preemptions),
                         format_bytes(weights_per_gpu)};
                   });

  Table table({"engine", "TPOT ms", "p90 TPOT", "TTFT ms", "p90 TTFT",
               "mean batch", "completed", "preempt", "weights/GPU"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  if (clustered) {
    std::cout << "\nCluster:\n";
    for (const auto& line : cluster_rows) std::cout << "  " << line << "\n";
  }

  // `--trace-out` / `--metrics-out`: record the exact configured run on
  // the MARLIN engine in one serial re-run.
  if (!cli.trace_out.empty() || !cli.metrics_out.empty()) {
    auto cfg = ecfg;
    cfg.format = serve::WeightFormat::kMarlin;
    const serve::Engine engine(cfg);
    bench::maybe_write_observation(cli, engine, scfg);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
