// Figure 16: serving benchmark — TTFT (time to first token) for
// Llama-2-7B on RTX A6000, same setup as Figure 15.
//
// Paper numbers: FP16 39.95..49.67 ms; MARLIN 25.4-27.9 ms (1.52-1.78x);
// Sparse-MARLIN 25.0-26.6 ms (1.50-1.94x). TTFT gains are smaller than
// TPOT gains because prefill is compute-bound.

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
      args, "bench_fig16_ttft",
      "Figure 16 - serving TTFT (time to first token), Llama-2-7B on "
      "RTX A6000",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  // --seed reproduces the identical Poisson trace; --policy swaps the
  // scheduler's admission order (defaults are the goldens configuration).
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args);
  bench::BenchJsonReporter json(args, ctx, "bench_fig16_ttft");
  std::cout << "=== Figure 16: Llama-2-7B TTFT on RTX A6000 "
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

  struct Point {
    std::size_t engine;
    double qps;
  };
  std::vector<Point> points;
  for (std::size_t e = 0; e < formats.size(); ++e) {
    for (const double qps : qps_values) points.push_back({e, qps});
  }
  json.set_points(points.size());
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc;
    sc.qps = pt.qps;
    sc.duration_s = 120.0;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    return serve::simulate_cluster_detailed(*engines[pt.engine], sc)
        .sched.metrics.mean_ttft_ms;
  });

  Table table({"engine \\ QPS", "1.0", "2.5", "5.0", "10.0"});
  std::vector<std::vector<double>> ttft(formats.size());
  for (std::size_t e = 0; e < formats.size(); ++e) {
    std::vector<double> row;
    for (std::size_t i = 0; i < qps_values.size(); ++i) {
      row.push_back(cells[e * qps_values.size() + i]);
    }
    ttft[e] = row;
    table.add_row_numeric(serve::to_string(formats[e]), row, 2);
  }
  table.print(std::cout);
  std::cout << "\nSpeedup vs FP16:\n";
  Table sp({"engine \\ QPS", "1.0", "2.5", "5.0", "10.0"});
  for (std::size_t k = 1; k < formats.size(); ++k) {
    std::vector<double> row;
    for (std::size_t i = 0; i < qps_values.size(); ++i) {
      row.push_back(ttft[0][i] / ttft[k][i]);
    }
    sp.add_row_numeric(k == 1 ? "vLLM MARLIN" : "vLLM Sparse-MARLIN", row, 2);
  }
  sp.print(std::cout);
  std::cout << "\nPaper reference: ~1.5-1.9x — smaller than the TPOT gains "
               "because prefill is compute-bound.\n";

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
