// Figure 11: roofline analysis of the MARLIN kernel on NVIDIA A10 across
// four square weight shapes (2^12..2^15) and batch sizes 2^0..2^16.
//
// Paper shape: points ride the bandwidth roof up to batch ~64, then the
// compute roof; long compute-heavy runs throttle from the boost roof
// (125 TF, ridge 208.3 FLOP/B) towards the base-clock roof (65.3 TF,
// ridge 108.8 FLOP/B).

#include <iostream>

#include "common.hpp"
#include "core/timing.hpp"
#include "gpusim/roofline.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig11_roofline",
                          "Figure 11 - roofline analysis of the MARLIN kernel");
  const SimContext ctx = bench::make_context(args);
  const auto d = gpusim::a10();
  std::cout << "=== Figure 11: MARLIN roofline on A10 ===\n";
  std::cout << "Roofs: boost " << d.fp16_tc_tflops_boost << " TF (ridge "
            << format_double(d.flops_per_byte(d.boost_clock_ghz), 1)
            << " FLOP/B), base "
            << format_double(d.tc_flops(d.base_clock_ghz) / 1e12, 1)
            << " TF (ridge "
            << format_double(d.flops_per_byte(d.base_clock_ghz), 1)
            << " FLOP/B), BW " << d.gmem_bandwidth_gbs << " GB/s\n\n";

  const gpusim::ClockModel clock{gpusim::ClockMode::kAutoThermal};
  struct Point {
    index_t size, m;
  };
  std::vector<Point> points;
  for (const index_t size : {4096, 8192, 16384, 32768}) {
    for (index_t m = 1; m <= 65536; m *= 4) points.push_back({size, m});
  }
  const auto rows = bench::run_sweep(
      ctx, points, [&](const Point& pt) -> std::vector<std::string> {
        const core::MatmulProblem p{pt.m, pt.size, pt.size, 128, false};
        const auto est = core::marlin_estimate_auto(p, d, clock);
        const double intensity = est.arithmetic_intensity();
        const double roof =
            gpusim::roofline_attainable_flops(d, est.effective_clock_ghz,
                                              intensity) /
            1e12;
        const bool mem_bound =
            intensity <
            gpusim::roofline_ridge_intensity(d, est.effective_clock_ghz);
        return {std::to_string(pt.size) + "^2", std::to_string(pt.m),
                format_double(intensity, 1),
                format_double(est.achieved_tflops(), 2),
                format_double(roof, 1),
                mem_bound ? "memory-bound" : "compute-bound",
                format_double(est.effective_clock_ghz, 3)};
      });

  Table table({"shape", "batch", "intensity FLOP/B", "TFLOP/s",
               "roof TFLOP/s", "regime", "clock GHz"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  std::cout << "\nPaper reference: memory-bound below batch ~64; large "
               "shapes at large batch throttle towards the base-clock "
               "roof.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
