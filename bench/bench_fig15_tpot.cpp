// Figure 15: serving benchmark — TPOT (time per output token) for
// Llama-2-7B on RTX A6000 under Poisson client load at 1 / 2.5 / 5 / 10
// QPS (64 input, 64 output tokens), vLLM FP16 vs MARLIN vs Sparse-MARLIN.
//
// Paper numbers: FP16 22.47/24.32/27.26/37.00 ms; MARLIN 8.02/8.59/9.32/
// 11.38 ms (2.80-3.25x); Sparse-MARLIN 6.78/7.21/7.79/9.45 ms (3.31-3.92x).
// Note the speedup *increases* with QPS: the faster kernel drains queues
// sooner and therefore observes smaller average batches.

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  using serve::WeightFormat;
  const CliArgs args(argc, argv);
  // The figure sweeps its own QPS axis over a fixed 120 s window.
  auto help =
      bench::serving_flag_help(1.0, 120.0, {"qps", "duration", "workload"});
  help.push_back(bench::bench_json_flag_help());
  bench::maybe_print_help(
      args, "bench_fig15_tpot",
      "Figure 15 - serving TPOT (time per output token), Llama-2-7B on "
      "RTX A6000",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  // --seed reproduces the identical Poisson trace; --policy swaps the
  // scheduler's admission order (defaults are the goldens configuration).
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args);
  bench::BenchJsonReporter json(args, ctx, "bench_fig15_tpot");
  std::cout << "=== Figure 15: Llama-2-7B TPOT on RTX A6000 "
               "(64 in / 64 out) ===\n\n";

  const std::vector<double> qps_values{1.0, 2.5, 5.0, 10.0};
  const std::vector<WeightFormat> formats{
      WeightFormat::kFp16, WeightFormat::kMarlin,
      WeightFormat::kSparseMarlin};

  std::vector<std::unique_ptr<serve::Engine>> engines;
  for (const auto fmt : formats) {
    serve::EngineConfig cfg;
    cfg.model = serve::llama2_7b();
    cfg.gpu = gpusim::rtxa6000();
    cfg.format = fmt;
    engines.push_back(std::make_unique<serve::Engine>(cfg));
  }

  // Every (format, QPS) serving simulation is an independent fixed-seed
  // run; all 12 fan out on the context and land in point order.
  struct Point {
    std::size_t engine;
    double qps;
  };
  struct Cell {
    double tpot_ms = 0;
    double mean_batch = 0;
  };
  std::vector<Point> points;
  for (std::size_t e = 0; e < formats.size(); ++e) {
    for (const double qps : qps_values) points.push_back({e, qps});
  }
  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "fig15 serving sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc;
    sc.qps = pt.qps;
    sc.duration_s = 120.0;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    const auto m =
        serve::simulate_cluster_detailed(*engines[pt.engine], sc).sched.metrics;
    return Cell{m.mean_tpot_ms, m.mean_batch};
  });

  Table table({"engine \\ QPS", "1.0", "2.5", "5.0", "10.0"});
  Table batch_table({"mean batch \\ QPS", "1.0", "2.5", "5.0", "10.0"});
  std::vector<std::vector<double>> tpot(formats.size());
  for (std::size_t e = 0; e < formats.size(); ++e) {
    std::vector<double> row, brow;
    for (std::size_t i = 0; i < qps_values.size(); ++i) {
      row.push_back(cells[e * qps_values.size() + i].tpot_ms);
      brow.push_back(cells[e * qps_values.size() + i].mean_batch);
    }
    tpot[e] = row;
    table.add_row_numeric(serve::to_string(formats[e]), row, 2);
    batch_table.add_row_numeric(serve::to_string(formats[e]), brow, 1);
  }
  table.print(std::cout);
  std::cout << "\nSpeedup vs FP16:\n";
  Table sp({"engine \\ QPS", "1.0", "2.5", "5.0", "10.0"});
  for (std::size_t k = 1; k < formats.size(); ++k) {
    std::vector<double> row;
    for (std::size_t i = 0; i < qps_values.size(); ++i) {
      row.push_back(tpot[0][i] / tpot[k][i]);
    }
    sp.add_row_numeric(k == 1 ? "vLLM MARLIN" : "vLLM Sparse-MARLIN", row, 2);
  }
  sp.print(std::cout);
  std::cout << "\nAverage decode batch observed by the engine (the paper's "
               "mechanism for speedup growing with QPS):\n";
  batch_table.print(std::cout);
  std::cout << "\nPaper reference: FP16 22.5->37.0 ms; MARLIN ~2.8-3.3x; "
               "Sparse-MARLIN ~3.3-3.9x, gains growing with QPS.\n";

  // `--trace-out` / `--metrics-out`: record the MARLIN engine at the
  // highest-load point of the sweep in one serial re-run.
  {
    serve::ServingConfig sc;
    sc.qps = qps_values.back();
    sc.duration_s = 120.0;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    bench::maybe_write_observation(cli, *engines[1], sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
