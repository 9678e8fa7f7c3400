// Figure 13: sustained (locked base clock) Sparse-MARLIN comparison.

#include <iostream>

#include "common.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig13_sparse_sustained",
                          "Figure 13 - Sparse-MARLIN sustained (base clock)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Figure 13: Sparse-MARLIN sustained speedup on A10 "
               "(locked base clock) ===\n"
            << "16bit x 4bit + 2:4 (group=128), K=18432, N=73728\n\n";
  const bench::SweepTimer timer(ctx, "fig13 analytic sweep");
  bench::print_speedup_over_fp16(
      ctx, std::cout, "Speedup over FP16 (CUTLASS model), base clock",
      gpusim::a10(), gpusim::ClockMode::kLockedBase,
      {"ideal-dense", "ideal-int4", "ideal-sparse", "marlin", "sparse-marlin",
       "torch-int4", "exllamav2", "awq", "bitsandbytes"},
      bench::fig1_batches(), bench::fig1_problem);
  std::cout << "Paper reference: both MARLIN variants stay near their "
               "ideals at base clock; comparators degrade further.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
