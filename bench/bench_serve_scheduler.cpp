// Scheduler scenario sweep: admission policy x workload shape x KV-cache
// budget for Llama-2-7B (MARLIN) on RTX A6000 under overload (8 QPS).
//
// This is the exploration surface the paper's Figures 15/16 only sample
// one point of: how the serving metrics respond when the arrival process
// burns in bursts or carries heavy-tailed ShareGPT-like lengths, and when
// the paged KV cache actually runs out — forcing watermark admission,
// queueing, and recompute preemption. All 27 simulations are fixed-seed
// discrete-event runs fanned out on the SimContext pool; the tables are
// byte-identical at every `--threads` count (ctest -L golden enforces it).
//
// Flags: --threads, --seed, --qps, --duration, --prefill-chunk (tokens,
// 0 = unchunked), plus the shared serving flags in common.hpp.

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  const CliArgs args(argc, argv);
  auto help = bench::serving_flag_help(8.0, 60.0, {"workload"});
  help.insert(help.begin(),
              {{"--prefill-chunk N",
                "per-sequence prefill chunk tokens (0 = unchunked)"},
               {"--trace-out FILE",
                "write a Chrome/Perfetto trace of one recorded serial "
                "re-run (tight-KV bursty cell)"},
               bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_scheduler",
      "scheduler scenario sweep: admission policy x workload shape x KV "
      "budget under overload (sweeps fcfs/sjf/max-util itself)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 8.0, 60.0);
  const index_t chunk = args.get_int("prefill-chunk", 0);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_scheduler");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  const index_t block_size = 16;
  const index_t derived = sched::derive_kv_block_budget(engine, block_size);
  struct Budget {
    std::string label;
    index_t blocks;
  };
  const std::vector<Budget> budgets{
      {"unlimited", 0},
      {"hbm", derived},  // what actually fits next to the weights
      {"tight", 128},    // ~2k KV tokens: forces queueing + preemption
  };
  const std::vector<sched::WorkloadShape> shapes{
      sched::WorkloadShape::kPoisson, sched::WorkloadShape::kBursty,
      sched::WorkloadShape::kShareGpt};
  const std::vector<sched::SchedPolicy> policies{
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kShortestJob,
      sched::SchedPolicy::kMaxUtilization};

  std::cout << "=== Scheduler sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << cli.qps << " QPS, " << cli.duration_s << " s ===\n"
            << "KV budgets (blocks of " << block_size
            << " tokens): unlimited, hbm=" << derived << ", tight=128\n\n";

  struct Point {
    std::size_t shape, policy, budget;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t b = 0; b < budgets.size(); ++b) points.push_back({s, p, b});
    }
  }

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "scheduler scenario sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.shape = shapes[pt.shape];
    sc.policy = policies[pt.policy];
    sc.kv_blocks = budgets[pt.budget].blocks;
    sc.kv_block_size = block_size;
    sc.prefill_chunk_tokens = chunk;
    return serve::simulate_cluster_detailed(engine, sc).sched;
  });

  std::size_t cell = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    std::cout << "--- workload: " << sched::to_string(shapes[s]) << " ---\n";
    Table table({"policy / KV", "TPOT ms", "p90 TPOT", "TTFT ms", "p90 TTFT",
                 "batch", "done", "preempt", "peak blk"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        const auto& st = cells[cell++];
        const auto& m = st.metrics;
        table.add_row({std::string(sched::to_string(policies[p])) + " / " +
                           budgets[b].label,
                       format_double(m.mean_tpot_ms, 2),
                       format_double(m.p90_tpot_ms, 2),
                       format_double(m.mean_ttft_ms, 2),
                       format_double(m.p90_ttft_ms, 2),
                       format_double(m.mean_batch, 1),
                       std::to_string(m.completed),
                       std::to_string(st.preemptions),
                       std::to_string(st.peak_kv_blocks)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Watermark admission keeps the tight budget from thrashing; "
               "preempted sequences recompute their KV on re-admission.\n";

  // `--trace-out` / `--metrics-out`: record the tight-KV bursty cell (the
  // one that queues and preempts) in one serial re-run.
  {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.shape = sched::WorkloadShape::kBursty;
    sc.policy = cli.policy;
    sc.kv_blocks = 128;
    sc.kv_block_size = block_size;
    sc.prefill_chunk_tokens = chunk;
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
