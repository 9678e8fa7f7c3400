// Multi-tenant serving sweep: tenant mix x admission policy x speculative
// decoding for Llama-2-7B (MARLIN) on RTX A6000 under heavy overload (20 QPS),
// on a deliberately tight KV budget (96 blocks = 1536 tokens) so the
// tenants actually contend for the paged cache.
//
// Two mixes share one arrival trace (tenant assignment draws from a side
// RNG stream, so the base trace is identical across mixes):
//
//   * tiered — interactive (weight 4, tier 0, small KV quota), standard
//     (weight 2, tier 1), batch (weight 1, tier 2, big traffic share).
//     Under wfq the interactive tenant's TTFT collapses relative to fcfs
//     while batch pays, and quota reclaim preempts over-quota borrowers.
//   * equal  — three identical tenants; wfq then degrades gracefully
//     toward fcfs-like behaviour (the fairness key only separates
//     tenants that differ).
//
// The speculation axis prices propose-then-verify rounds against a
// TinyLlama-1.1B draft (depth 4, 80% per-token acceptance): committing
// >1 token per round shrinks TPOT and drains the overloaded admission
// queue sooner, which pulls TTFT down with it.
//
// All 8 simulations are fixed-seed discrete-event runs fanned out on the
// SimContext pool; tables are byte-identical at every `--threads` count
// (ctest -L golden enforces 1 and 4).

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  const CliArgs args(argc, argv);
  // No --policy here: the sweep runs fcfs AND wfq itself.
  auto help = bench::serving_flag_help(20.0, 40.0, {"policy", "workload"});
  help.insert(
      help.begin(),
      {{"--kv-blocks N", "KV budget in blocks of 16 tokens (default 96)"},
       {"--spec-depth D", "draft tokens per speculative round (default 4)"},
       {"--spec-accept A", "per-token draft acceptance (default 0.8)"},
       {"--trace-out FILE",
        "write a Chrome/Perfetto trace of one recorded serial re-run "
        "(tiered wfq cell with speculation)"},
       bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_multitenant",
      "tenant mix x {fcfs,wfq} x speculation on/off serving sweep "
      "(Llama-2-7B MARLIN on RTX A6000, tight KV budget)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 20.0, 40.0);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_multitenant");
  const index_t kv_blocks = args.get_int("kv-blocks", 96);
  const index_t spec_depth = args.get_int("spec-depth", 4);
  const double spec_accept = args.get_double("spec-accept", 0.8);

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  struct Mix {
    std::string label;
    std::vector<sched::TenantSpec> tenants;
  };
  const std::vector<Mix> mixes{
      {"tiered",
       {{0, "interactive", 4.0, 0, 64, 0.25},
        {1, "standard", 2.0, 1, 96, 0.35},
        {2, "batch", 1.0, 2, 96, 0.40}}},
      {"equal",
       {{0, "a", 1.0, 0, sched::kNoQuota, 1.0},
        {1, "b", 1.0, 0, sched::kNoQuota, 1.0},
        {2, "c", 1.0, 0, sched::kNoQuota, 1.0}}},
  };
  const std::vector<sched::SchedPolicy> policies{
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kWeightedFair};
  const std::vector<index_t> spec_depths{0, spec_depth};

  std::cout << "=== Multi-tenant serving sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << cli.qps << " QPS, " << cli.duration_s << " s, " << kv_blocks
            << " KV blocks ===\n"
            << "Speculation: TinyLlama-1.1B draft, depth " << spec_depth
            << ", acceptance " << format_double(spec_accept, 2) << "\n\n";

  struct Point {
    std::size_t mix, policy, spec;
  };
  std::vector<Point> points;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t s = 0; s < spec_depths.size(); ++s) {
        points.push_back({m, p, s});
      }
    }
  }

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "multi-tenant serving sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = policies[pt.policy];
    sc.kv_blocks = kv_blocks;
    sc.tenants = mixes[pt.mix].tenants;
    sc.speculation.depth = spec_depths[pt.spec];
    sc.speculation.acceptance = spec_accept;
    return serve::simulate_cluster_detailed(engine, sc).sched;
  });

  std::size_t cell = 0;
  for (const auto& mix : mixes) {
    std::cout << "--- mix: " << mix.label << " (";
    for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
      const auto& spec = mix.tenants[t];
      std::cout << (t ? ", " : "") << spec.name << " w" << spec.weight
                << " tier" << spec.tier;
      if (spec.kv_block_quota != sched::kNoQuota) {
        std::cout << " q" << spec.kv_block_quota;
      }
    }
    std::cout << ") ---\n";

    Table table({"policy / spec", "TPOT ms", "TTFT ms", "p90 TTFT", "batch",
                 "done", "preempt", "tok/round"});
    Table fairness({"policy / spec / tenant", "TTFT ms", "TPOT ms", "done",
                    "tokens", "preempt"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t s = 0; s < spec_depths.size(); ++s) {
        const auto& st = cells[cell++];
        const auto& m = st.metrics;
        const std::string row_label =
            std::string(sched::to_string(policies[p])) + " / " +
            (spec_depths[s] > 0 ? "spec" : "plain");
        // Committed tokens per sequence-round: sequence-rounds are
        // spec_draft_tokens / depth (each sequence proposes `depth` per
        // round), so the ratio lands at expected_tokens_per_round.
        const double tok_per_round =
            st.spec_draft_tokens > 0
                ? static_cast<double>(st.spec_committed_tokens) *
                      static_cast<double>(spec_depths[s]) /
                      static_cast<double>(st.spec_draft_tokens)
                : 0.0;
        table.add_row({row_label, format_double(m.mean_tpot_ms, 2),
                       format_double(m.mean_ttft_ms, 2),
                       format_double(m.p90_ttft_ms, 2),
                       format_double(m.mean_batch, 1),
                       std::to_string(m.completed),
                       std::to_string(st.preemptions),
                       format_double(tok_per_round, 2)});
        // Look tenant specs up by id, not position — ids need not be
        // dense (server_sim scatters shares by id for the same reason).
        const auto tenant_name = [&](index_t id) {
          for (const auto& t : mix.tenants) {
            if (t.id == id) return t.name;
          }
          return "tenant" + std::to_string(id);
        };
        for (const auto& tm : sched::per_tenant_metrics(st)) {
          fairness.add_row(
              {row_label + " / " + tenant_name(tm.tenant),
               format_double(tm.mean_ttft_ms, 2),
               format_double(tm.mean_tpot_ms, 2),
               std::to_string(tm.completed), std::to_string(tm.output_tokens),
               std::to_string(tm.preemptions)});
        }
      }
    }
    table.print(std::cout);
    std::cout << "\nPer-tenant fairness:\n";
    fairness.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "wfq trades batch-tenant latency for interactive-tenant TTFT "
               "under contention; speculation commits >1 token per round at "
               "one verify step's cost.\n";

  // `--trace-out` / `--metrics-out`: record the tiered-mix wfq cell with
  // speculation on (per-tenant service + spec-round events) in one serial
  // re-run.
  {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = sched::SchedPolicy::kWeightedFair;
    sc.kv_blocks = kv_blocks;
    sc.tenants = mixes[0].tenants;
    sc.speculation.depth = spec_depth;
    sc.speculation.acceptance = spec_accept;
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
