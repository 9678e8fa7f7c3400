// Extension (paper §7 future work): "extreme" compression bit-widths.
// Speedup ceilings and MARLIN-style estimates for 2/3/4/8-bit weights,
// next to the *measured* GPTQ quality at each width — the speed/quality
// trade the vector-quantization follow-ups (QuIP, AQLM) chase.

#include <iostream>

#include "common.hpp"
#include "core/timing.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "quant/gptq.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_ext_bitwidths",
                          "extension: extreme weight bit-widths (paper Sec. 7)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Extension: weight bit-width sweep (A10, 72k x 18k, "
               "batch 16) ===\n\n";
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  const auto fp16 = baselines::make_kernel_model("fp16");

  // Measured GPTQ quality per width on a synthetic layer.
  const auto layer = eval::make_synthetic_layer(128, 32, 512, 555);
  quant::HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());

  const std::vector<int> widths{2, 3, 4, 8};
  const auto rows = bench::run_sweep(
      ctx, widths, [&](const int bits) -> std::vector<std::string> {
        core::MatmulProblem p{16, 18432, 73728, 128, false};
        p.weight_bits = bits;
        const double tf = fp16->estimate(p, d, clock).seconds;
        const double tm = core::marlin_estimate_auto(p, d, clock).seconds;

        quant::GptqConfig gcfg;
        gcfg.quant.bits = bits;
        gcfg.quant.group_size = 64;
        const auto r = quant::gptq_quantize(layer.w.view(), acc, gcfg);
        const double nmse = eval::layer_output_nmse(
            layer.w.view(), r.weights.dequantize().view(),
            layer.calib.view());

        return {std::to_string(bits),
                format_double(p.weight_bits_per_element(), 3),
                format_double(16.0 / p.weight_bits_per_element(), 2),
                format_double(tf / tm, 2), format_double(nmse, 5)};
      });

  Table table({"weight bits", "bits/weight (g=128)", "ceiling vs fp16",
               "marlin-style speedup (bs16)", "GPTQ nmse (measured)"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  std::cout << "\nTakeaway: 2-3 bit formats raise the memory-bound ceiling "
               "towards 5-7.5x but pay rapidly growing reconstruction "
               "error — closing that gap needs the vector-quantization "
               "codebooks the paper names as future work.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
