// Table 2: end-to-end generative speedup of MARLIN over vLLM's FP16
// baseline, across models, GPU types/counts and batch sizes.
//
// Paper shape: speedups are largest (2-3.2x) when inference is
// memory-bound (batch <= 16) on weaker or fewer GPUs, and shrink toward
// ~1.1-1.2x at batch 128 or with 8-way tensor parallelism on A100s.
//
// Every row prices each step through `parallel::ParallelEngine`
// (Megatron sharding, two ring all-reduces per block); a 1-GPU row is the
// one-rank grid, bit-identical to the single-device Engine.

#include <iostream>

#include "common.hpp"
#include "serve/generation.hpp"
#include "serve/parallel/parallel_engine.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_table2_e2e_grid",
                          "Table 2 - end-to-end speedup grid over vLLM FP16");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Table 2: end-to-end MARLIN speedup vs vLLM FP16 ===\n\n";

  struct Row {
    serve::ModelConfig model;
    gpusim::DeviceSpec gpu;
    int gpus;
  };
  const std::vector<Row> rows{
      {serve::llama2_7b(), gpusim::a10(), 1},
      {serve::llama2_7b(), gpusim::rtx3090(), 1},
      {serve::llama2_13b(), gpusim::rtxa6000(), 1},
      {serve::yi_34b(), gpusim::a100_80g(), 1},
      {serve::llama2_70b(), gpusim::rtxa6000(), 4},
      {serve::llama2_70b(), gpusim::rtxa6000(), 8},
      {serve::llama2_70b(), gpusim::a100_80g(), 2},
      {serve::llama2_70b(), gpusim::a100_80g(), 4},
      {serve::llama2_70b(), gpusim::a100_80g(), 8},
      {serve::falcon_180b(), gpusim::rtxa6000(), 8},
      {serve::falcon_180b(), gpusim::a100_80g(), 8},
  };
  const std::vector<index_t> batches{1, 2, 4, 8, 16, 32, 64, 128};

  // One sweep point per grid row: builds its engine pair and walks the
  // batch axis (the engine memo makes that inner walk cheap).
  const auto cell_rows = bench::run_sweep(
      ctx, rows, [&](const Row& r) -> std::vector<std::string> {
        serve::EngineConfig cfg;
        cfg.model = r.model;
        cfg.gpu = r.gpu;
        cfg.format = serve::WeightFormat::kFp16;
        const serve::Engine fp16_engine(cfg);
        cfg.format = serve::WeightFormat::kMarlin;
        const serve::Engine marlin_engine(cfg);
        const serve::parallel::ParallelConfig tp{r.gpus, 1, 0};
        const serve::parallel::ParallelEngine fp16(fp16_engine, tp);
        const serve::parallel::ParallelEngine marlin(marlin_engine, tp);

        std::vector<std::string> cells{r.model.name, r.gpu.name,
                                       std::to_string(r.gpus)};
        for (const auto b : batches) {
          const auto gf = serve::generation_time(fp16, b, 64, 64);
          const auto gm = serve::generation_time(marlin, b, 64, 64);
          cells.push_back(
              format_double(gf.decode_seconds / gm.decode_seconds, 2));
        }
        return cells;
      });

  Table table({"model", "gpu", "#", "1", "2", "4", "8", "16", "32", "64",
               "128"});
  for (const auto& cells : cell_rows) table.add_row(cells);
  table.print(std::cout);
  std::cout << "\nPaper reference (selection): 7B/A10 2.93..1.20; "
               "70B/A100x8 1.38..1.07; Falcon-180B/A100x8 1.76..1.08.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
