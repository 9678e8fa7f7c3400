// §5.1 (text): prefill-sized batches on A100 — MARLIN must stay within
// ~10% of the uncompressed compute-bound matmul up to batch 1024, with a
// mild slowdown beyond.

#include <iostream>

#include "common.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_prefill_large_batch",
                          "paper Sec. 5.1 - prefill-sized batches on A100");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Prefill regime: MARLIN vs FP16 on A100 "
               "(8192 x 8192, group=128) ===\n\n";
  const auto d = gpusim::a100_80g();
  const gpusim::ClockModel clock{gpusim::ClockMode::kAutoThermal};
  const auto fp16 = baselines::make_kernel_model("fp16");
  const auto marlin = baselines::make_kernel_model("marlin");

  std::vector<index_t> batches;
  for (index_t m = 256; m <= 16384; m *= 2) batches.push_back(m);
  const auto rows = bench::run_sweep(
      ctx, batches, [&](const index_t m) -> std::vector<std::string> {
        const core::MatmulProblem p{m, 8192, 8192, 128, false};
        const double tf = fp16->estimate(p, d, clock).seconds;
        const double tm = marlin->estimate(p, d, clock).seconds;
        return {std::to_string(m), format_seconds(tf), format_seconds(tm),
                format_double(tm / tf, 3)};
      });

  Table table({"batch", "fp16", "marlin", "marlin/fp16"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  std::cout << "\nPaper reference: ratio ~1.0 up to batch 1024, ~1.1 at "
               "very large shapes.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
