// Quantize a (synthetic) multi-layer model with GPTQ into the MARLIN
// format and report the quality/size trade-off per layer — the offline
// pipeline a deployment would run once per checkpoint. Layers are
// independent, so `--threads N` quantizes them concurrently on the
// SimContext pool (per-layer seeds keep the report deterministic).
//
//   $ ./quantize_model --layers 4 --k 512 --n 256 --group 128 --clip

#include <iostream>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "layout/repack.hpp"
#include "quant/gptq.hpp"
#include "quant/uniform.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/sim_context.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(
      args, "quantize_model",
      "GPTQ-quantize a synthetic model, report quality and size",
      {{"--layers N", "layer count (default 4)"},
       {"--k N", "reduction dim (default 512)"},
       {"--n N", "output dim (default 256)"},
       {"--tokens N", "calibration tokens (default 2*k)"},
       {"--group N", "quantization group size (default 128)"},
       {"--clip", "clip-search the quantization grid (default on)"}});
  const SimContext ctx = make_sim_context(args);
  const index_t layers = args.get_int("layers", 4);
  const index_t k = args.get_int("k", 512);
  const index_t n = args.get_int("n", 256);
  const index_t tokens = args.get_int("tokens", 2 * k);
  MARLIN_CHECK(layers >= 1 && k >= 1 && n >= 1 && tokens >= 1,
               "--layers, --k, --n and --tokens must be >= 1, got "
                   << layers << ", " << k << ", " << n << ", " << tokens);

  quant::GptqConfig cfg;
  cfg.quant.group_size = args.get_int("group", 128);
  cfg.quant.clip_search = args.get_bool("clip", true);

  std::cout << "GPTQ-quantizing " << layers << " synthetic layers of " << k
            << "x" << n << " (group " << cfg.quant.group_size
            << ", clip search " << (cfg.quant.clip_search ? "on" : "off")
            << ")\n\n";

  struct LayerReport {
    std::vector<std::string> row;
    double bytes = 0;
  };
  std::vector<LayerReport> reports(static_cast<std::size_t>(layers));
  ctx.parallel_for(0, layers, [&](std::int64_t l) {
    const auto layer =
        eval::make_synthetic_layer(k, n, tokens, 9000 + 17 * l);

    // Variable-length calibration sequences (paper §3.5 (b)).
    quant::HessianAccumulator acc(k);
    index_t row = 0;
    Rng rng(l + 1);
    while (row < tokens) {
      const index_t len =
          std::min<index_t>(tokens - row,
                            16 + static_cast<index_t>(rng.uniform_int(64)));
      acc.add_sequence(layer.calib.view().block(row, 0, len, k));
      row += len;
    }

    const auto gptq = quant::gptq_quantize(layer.w.view(), acc, cfg);
    const auto rtn = quant::quantize_rtn(layer.w.view(), cfg.quant);
    const double e_gptq = eval::layer_output_nmse(
        layer.w.view(), gptq.weights.dequantize().view(),
        layer.calib.view());
    const double e_rtn = eval::layer_output_nmse(
        layer.w.view(), rtn.dequantize().view(), layer.calib.view());

    const auto mw = layout::marlin_repack(gptq.weights);
    const double bytes =
        static_cast<double>(mw.weight_bytes() + mw.scale_bytes());

    auto& report = reports[static_cast<std::size_t>(l)];
    report.bytes = bytes;
    report.row = {"layer_" + std::to_string(l), format_double(e_rtn, 5),
                  format_double(e_gptq, 5),
                  format_double(e_gptq / e_rtn, 2),
                  format_double(gptq.weights.bits_per_weight(), 3),
                  format_bytes(bytes)};
  });

  Table table({"layer", "RTN nmse", "GPTQ nmse", "GPTQ/RTN", "bits/weight",
               "packed size"});
  double total_bytes = 0;
  const double fp16_bytes = 2.0 * static_cast<double>(layers) *
                            static_cast<double>(k) * static_cast<double>(n);
  for (const auto& report : reports) {
    table.add_row(report.row);
    total_bytes += report.bytes;
  }
  table.print(std::cout);
  std::cout << "\nmodel size: " << format_bytes(total_bytes) << " vs "
            << format_bytes(fp16_bytes) << " FP16 ("
            << format_double(fp16_bytes / total_bytes, 2)
            << "x compression)\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
