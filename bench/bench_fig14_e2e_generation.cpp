// Figure 14: end-to-end Llama-2-7B generation time on NVIDIA A10
// (64 input tokens, 64 output tokens) — total time to generate the
// 2nd..64th tokens, vs batch size, for vLLM FP16 / MARLIN / Sparse-MARLIN.
//
// Paper shape: MARLIN up to ~3x faster; Sparse-MARLIN another ~1.2x on
// top; gains shrink at batch >= 64 where the matmuls become compute-bound.

#include <iostream>

#include "common.hpp"
#include "serve/generation.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  using serve::WeightFormat;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig14_e2e_generation",
                          "Figure 14 - end-to-end Llama-2-7B generation time");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Figure 14: Llama-2-7B generation time on A10 "
               "(64 in / 64 out) ===\n\n";

  const std::vector<index_t> batches{1, 2, 4, 8, 16, 32, 64, 128};
  Table table({"engine \\ batch", "1", "2", "4", "8", "16", "32", "64",
               "128"});

  std::vector<std::unique_ptr<serve::Engine>> engines;
  for (const auto fmt : {WeightFormat::kFp16, WeightFormat::kMarlin,
                         WeightFormat::kSparseMarlin}) {
    serve::EngineConfig cfg;
    cfg.model = serve::llama2_7b();
    cfg.gpu = gpusim::a10();
    cfg.format = fmt;
    engines.push_back(std::make_unique<serve::Engine>(cfg));
  }

  // All (engine, batch) cells fan out together; the engines' memo caches
  // are mutex-guarded, so sharing them across sweep workers is safe.
  struct Point {
    std::size_t engine;
    index_t batch;
  };
  std::vector<Point> points;
  for (std::size_t e = 0; e < engines.size(); ++e) {
    for (const auto b : batches) points.push_back({e, b});
  }
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    return serve::generation_time(*engines[pt.engine], pt.batch, 64, 64)
        .decode_seconds;
  });

  std::vector<std::vector<double>> seconds(engines.size());
  for (std::size_t e = 0; e < engines.size(); ++e) {
    std::vector<std::string> row{
        serve::to_string(engines[e]->config().format)};
    for (std::size_t i = 0; i < batches.size(); ++i) {
      seconds[e].push_back(cells[e * batches.size() + i]);
      row.push_back(format_double(seconds[e].back(), 3));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nSpeedup vs FP16:\n";
  Table sp({"engine \\ batch", "1", "2", "4", "8", "16", "32", "64", "128"});
  for (std::size_t e = 1; e < engines.size(); ++e) {
    std::vector<double> row;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      row.push_back(seconds[0][i] / seconds[e][i]);
    }
    sp.add_row_numeric(serve::to_string(engines[e]->config().format), row, 2);
  }
  sp.print(std::cout);
  std::cout << "\nPaper reference: MARLIN ~3x at small batch; "
               "Sparse-MARLIN ~1.2x over MARLIN.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
