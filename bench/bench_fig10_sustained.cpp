// Figure 10: sustained performance — the Figure 1 sweep at LOCKED BASE
// clock, the paper's production scenario.
//
// Paper shape: MARLIN remains virtually optimal relative to the base-clock
// ideal, while the comparators' relative speedups degrade further (their
// CUDA-core dequantisation slows with the clock, GMEM bandwidth does not).

#include <iostream>

#include "common.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig10_sustained",
                          "Figure 10 - sustained performance at locked base clocks");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Figure 10: sustained per-layer speedup on A10 "
               "(locked base clock) ===\n"
            << "16bit x 4bit (group=128), K=18432, N=73728\n\n";
  const bench::SweepTimer timer(ctx, "fig10 analytic sweep");
  bench::print_speedup_over_fp16(
      ctx, std::cout, "Speedup over FP16 (CUTLASS model), base clock",
      gpusim::a10(), gpusim::ClockMode::kLockedBase,
      {"ideal-int4", "marlin", "torch-int4", "exllamav2", "awq",
       "bitsandbytes"},
      bench::fig1_batches(), bench::fig1_problem);
  std::cout << "Paper reference: MARLIN tracks the (base-clock) ideal at "
               "every batch size; prior kernels lose additional ground vs "
               "Figure 1.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
