// Multi-GPU parallel serving sweep: tensor/pipeline-parallel rank grids x
// admission policy x workload shape for Llama-2-70B (MARLIN) on A100-80G
// over NVLink, under overload (10 QPS).
//
// Each parallel config builds a per-rank worker grid (ParallelEngine):
// stage compute is the max over ranks, tensor parallelism pays two ring
// all-reduces per transformer block, pipeline parallelism pays activation
// send/recv per stage boundary plus the fill/drain bubble. KV budgets are
// HBM-derived per rank (--kv-blocks -1 semantics), so deeper sharding
// frees blocks for longer contexts. The step-decomposition table isolates
// where a decode step's latency goes before the end-to-end sweeps run.
//
// All simulations are fixed-seed discrete-event runs fanned out on the
// SimContext pool; tables are byte-identical at every `--threads` count
// (ctest -L golden enforces it at 1 and 4).
//
// Flags: --threads, --seed, --qps, --duration, plus the shared serving
// flags in common.hpp.

#include <deque>
#include <iostream>

#include "common.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  namespace par = serve::parallel;
  const CliArgs args(argc, argv);
  auto help = bench::serving_flag_help(10.0, 40.0, {"workload"});
  help.insert(help.begin(),
              {{"--trace-out FILE",
                "write a Chrome/Perfetto trace of one recorded serial "
                "re-run (TP2xPP2 grid with decode_split counter tracks)"},
               bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_parallel",
      "multi-GPU parallel serving sweep: TPxPP rank grids x policy x "
      "workload, Llama-2-70B on A100/NVLink (sweeps fcfs/sjf itself)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 10.0, 40.0);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_parallel");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_70b();
  ecfg.gpu = gpusim::a100_80g();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  const std::vector<par::ParallelConfig> grids{
      {1, 1, 0}, {2, 1, 0}, {4, 1, 0}, {1, 2, 0},
      {1, 4, 0}, {2, 2, 0}, {1, 2, 8},
  };
  const std::vector<sched::SchedPolicy> policies{
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kShortestJob};
  const std::vector<sched::WorkloadShape> shapes{
      sched::WorkloadShape::kPoisson, sched::WorkloadShape::kShareGpt};

  std::cout << "=== Parallel serving sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << " over " << ecfg.gpu.interconnect_name << ", " << cli.qps
            << " QPS, " << cli.duration_s << " s ===\n\n";

  // Per-config world summary: rank grid, heaviest weight shard, binding
  // per-rank KV budget (blocks of 16 tokens; min over the rank grid).
  const index_t block_size = 16;
  Table world({"config", "ranks", "weights/rank", "KV blocks/rank",
               "KV tokens"});
  // deque: ParallelEngine owns a mutex and is immovable.
  std::deque<par::ParallelEngine> engines;
  for (const auto& g : grids) {
    engines.emplace_back(engine, g);
    const auto& pe = engines.back();
    const index_t blocks = pe.min_kv_block_budget(block_size);
    world.add_row({g.to_string(), std::to_string(g.world_size()),
                   format_bytes(pe.max_weight_shard_bytes()),
                   std::to_string(blocks),
                   std::to_string(blocks * block_size)});
  }
  world.print(std::cout);

  std::cout << "\nDecode-step decomposition at batch 64, context 512 "
               "(per-microbatch stage max, ring all-reduce, activation "
               "send, fill/drain bubble):\n";
  Table decomp({"config", "step ms", "compute ms", "tp-comm ms",
                "pp-send ms", "mb", "bubble"});
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const auto b = engines[i].decode_breakdown(64, 512.0);
    decomp.add_row({grids[i].to_string(), format_double(b.total_s * 1e3, 3),
                    format_double(b.stage_compute_s * 1e3, 3),
                    format_double(b.tp_comm_s * 1e3, 3),
                    format_double(b.pp_send_s * 1e3, 3),
                    std::to_string(b.microbatches),
                    format_double(b.bubble_fraction, 2)});
  }
  decomp.print(std::cout);

  struct Point {
    std::size_t shape, policy, grid;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t g = 0; g < grids.size(); ++g) points.push_back({s, p, g});
    }
  }

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "parallel serving sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.shape = shapes[pt.shape];
    sc.policy = policies[pt.policy];
    sc.kv_blocks = -1;  // HBM-derived per-rank budget (min rank binds)
    sc.kv_block_size = block_size;
    // A tight batch cap keeps the admission queue non-empty under the
    // 10 QPS overload, so the policy axis actually reorders requests.
    sc.max_batch = 32;
    sc.parallel = grids[pt.grid];
    return serve::simulate_cluster_detailed(engine, sc).sched;
  });

  std::size_t cell = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    std::cout << "\n--- workload: " << sched::to_string(shapes[s]) << " ---\n";
    Table table({"config / policy", "TPOT ms", "p90 TPOT", "TTFT ms",
                 "p90 TTFT", "batch", "done", "preempt", "peak blk"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t g = 0; g < grids.size(); ++g) {
        const auto& st = cells[cell++];
        const auto& m = st.metrics;
        table.add_row({grids[g].to_string() + " / " +
                           sched::to_string(policies[p]),
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
  }
  std::cout << "\nTensor parallelism cuts per-step compute but pays ring "
               "all-reduces; pipeline stages add fill/drain bubbles that "
               "more microbatches amortize.\n";

  // `--trace-out` / `--metrics-out`: record the TP2xPP2 grid (non-trivial
  // sharding, so the trace carries decode_split compute/comm/bubble
  // counter tracks) in one serial re-run.
  {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    sc.kv_blocks = -1;
    sc.kv_block_size = block_size;
    sc.max_batch = 32;
    sc.parallel = {2, 2, 0};
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
