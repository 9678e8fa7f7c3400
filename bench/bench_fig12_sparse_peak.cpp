// Figure 12: peak performance of Sparse-MARLIN (INT4 + 2:4) vs dense
// MARLIN, ideal bounds and the open-source comparators on A10.
//
// Paper shape: Sparse-MARLIN adds up to ~65% on top of dense MARLIN, with
// the gap opening in the compute-bound regime (sparse tensor cores run
// MMAs at 2x) and a higher memory-bound ceiling (3.125 vs 4.125 bits).

#include <iostream>

#include "common.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig12_sparse_peak",
                          "Figure 12 - Sparse-MARLIN (INT4 + 2:4) peak performance");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Figure 12: Sparse-MARLIN peak speedup on A10 (boost) ===\n"
            << "16bit x 4bit + 2:4 (group=128), K=18432, N=73728\n\n";
  const bench::SweepTimer timer(ctx, "fig12 analytic sweep");
  bench::print_speedup_over_fp16(
      ctx, std::cout, "Speedup over FP16 (CUTLASS model)", gpusim::a10(),
      gpusim::ClockMode::kBoost,
      {"ideal-dense", "ideal-int4", "ideal-sparse", "marlin", "sparse-marlin",
       "torch-int4", "exllamav2", "awq", "bitsandbytes"},
      bench::fig1_batches(), bench::fig1_problem);
  std::cout << "Paper reference: sparse ~= dense at small batch (both "
               "memory-bound, 0.75x bytes => ~1.3x gap), up to ~1.65x over "
               "dense at batch 64-128.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
