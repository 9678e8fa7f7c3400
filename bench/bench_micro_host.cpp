// google-benchmark micro-benchmarks of the host-side hot paths: packing,
// the lop3 dequant trick, weight repacking, the functional kernels, and
// the serving scheduler's decode tick. These measure real work on this
// machine (not the GPU timing model).
//
// On top of the fixed BENCHMARK() cases, main() registers one case per
// (kernel, supported SIMD level) — `micro_pack_interleaved[avx2]` and
// friends — and, when run with `--bench-json FILE`, appends one record
// per micro case to the BENCH_<pr>.json perf trajectory so the checked-in
// file documents the scalar-vs-SIMD speedups on the recording host.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/marlin_kernel.hpp"
#include "core/sparse_kernel.hpp"
#include "baselines/fp16_gemm.hpp"
#include "layout/repack.hpp"
#include "quant/dequant_trick.hpp"
#include "quant/gptq.hpp"
#include "quant/pack.hpp"
#include "quant/uniform.hpp"
#include "eval/synthetic.hpp"
#include "serve/engine.hpp"
#include "serve/sched/scheduler.hpp"
#include "sparse/compressed.hpp"
#include "sparse/two_four.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"
#include "util/sim_context.hpp"
#include "util/simd_ops.hpp"

namespace {

using namespace marlin;

std::vector<std::uint8_t> random_codes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.uniform_int(16));
  return codes;
}

void BM_Pack8Interleaved(benchmark::State& state) {
  const auto codes = random_codes(8 * 4096, 1);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < codes.size(); i += 8) {
      acc ^= quant::pack8_interleaved(
          std::span<const std::uint8_t>(codes).subspan(i, 8));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_Pack8Interleaved);

void BM_Dequant8Trick(benchmark::State& state) {
  const auto codes = random_codes(8 * 4096, 2);
  const auto packed = quant::pack_interleaved(codes);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const auto reg : packed) {
      for (const auto h : quant::dequant8(reg)) acc += h.bits();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_Dequant8Trick);

void BM_DequantNaive(benchmark::State& state) {
  const auto codes = random_codes(8 * 4096, 3);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const auto c : codes) acc += quant::dequant_naive_code(c).bits();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_DequantNaive);

quant::QuantizedWeights bench_qweights(index_t k, index_t n) {
  Rng rng(7);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  return quant::quantize_rtn(w.view(), cfg);
}

void BM_MarlinRepack(benchmark::State& state) {
  const auto q = bench_qweights(256, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::marlin_repack(q));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_MarlinRepack);

void BM_FunctionalMarlinMatmul(benchmark::State& state) {
  const index_t m = state.range(0);
  const auto q = bench_qweights(256, 256);
  const auto mw = layout::marlin_repack(q);
  Rng rng(8);
  Matrix<Half> a(m, 256);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  core::KernelConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::marlin_matmul(a.view(), mw, cfg, 8));
  }
  state.SetItemsProcessed(state.iterations() * m * 256 * 256 * 2);
}
BENCHMARK(BM_FunctionalMarlinMatmul)->Arg(1)->Arg(16);

// Per-SM parallelism through the SimContext pool (Arg = thread count; 1 is
// the bit-identical serial mode). Larger shape so the stripes amortise the
// dispatch; speedup tracks core count on multi-core hosts.
void BM_FunctionalMarlinMatmulThreads(benchmark::State& state) {
  const index_t m = 16, k = 768, n = 1536;
  const auto q = bench_qweights(k, n);
  const auto mw = layout::marlin_repack(q);
  Rng rng(8);
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  const SimContext ctx(static_cast<unsigned>(state.range(0)));
  core::KernelConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::marlin_matmul(a.view(), mw, cfg, 72, ctx));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n * 2);
}
BENCHMARK(BM_FunctionalMarlinMatmulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Fp16Gemm(benchmark::State& state) {
  Rng rng(9);
  Matrix<Half> a(16, 256), b(256, 256);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  for (index_t i = 0; i < 256; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      b(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::fp16_gemm(a.view(), b.view()));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 256 * 256 * 2);
}
BENCHMARK(BM_Fp16Gemm);

void BM_GptqQuantize(benchmark::State& state) {
  const auto layer = eval::make_synthetic_layer(128, 64, 512, 10);
  quant::HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  const auto h = acc.hessian();
  quant::GptqConfig cfg;
  cfg.quant.group_size = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::gptq_quantize(layer.w.view(), h, cfg));
  }
}
BENCHMARK(BM_GptqQuantize);

void BM_Compress24(benchmark::State& state) {
  const auto q = bench_qweights(256, 256);
  auto qz = q;
  const auto mask = sparse::prune_24_magnitude(q.dequantize().view());
  for (index_t i = 0; i < 256; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      if (!mask.keep(i, j)) qz.codes(i, j) = 8;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::compress_24(qz, mask));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_Compress24);

// ---- Serving scheduler ---------------------------------------------------

/// One decode tick of a replica running 256 n=2 requests whose 256-token
/// shared prompt header sits in a warm prefix cache: KV growth,
/// copy-on-write splits and batch bookkeeping, with every step price
/// served from the step table. Reports the write-range scans per tick.
void BM_DecodeTick(benchmark::State& state) {
  using serve::sched::Request;
  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  const serve::Engine engine(ecfg);
  serve::sched::SchedulerConfig scfg;
  scfg.max_batch = 256;
  scfg.blocks.num_blocks = index_t{1} << 16;
  scfg.blocks.prefix_cache.enabled = true;
  const serve::sched::Scheduler sched(engine, scfg);
  serve::sched::ReplicaState s = sched.make_replica_state();
  std::vector<Request> requests;
  // Queues a fresh wave of 256 requests (264-token prompts, 1024 output
  // tokens) and ticks until its first decode step.
  const auto start_wave = [&] {
    requests.clear();
    for (index_t i = 0; i < 256; ++i) {
      Request& r = requests.emplace_back(i, 0.0, 264, 1024);
      r.prefix_id = 0;
      r.prefix_tokens = 256;
      r.num_sequences = 2;
    }
    sched.register_tenants(s, requests);
    for (std::size_t i = 0; i < requests.size(); ++i) s.queue.push_back(i);
    const index_t steps = s.decode_steps;
    while (s.decode_steps == steps) {
      sched.admit(s, requests);
      sched.step(s, requests);
    }
  };
  // A first wave publishes the header and fills the step table.
  start_wave();
  while (s.busy()) sched.step(s, requests);
  start_wave();
  index_t ticks = 0;
  index_t scans = 0;
  for (auto _ : state) {
    if (!s.busy()) {
      state.PauseTiming();
      start_wave();
      state.ResumeTiming();
    }
    const index_t before = s.bm.counters().kv_grow_scans;
    sched.step(s, requests);
    benchmark::DoNotOptimize(s.now);
    scans += s.bm.counters().kv_grow_scans - before;
    ++ticks;
  }
  state.SetItemsProcessed(state.iterations() * 512);  // sequences decoded
  state.counters["scans_per_tick"] =
      static_cast<double>(scans) / static_cast<double>(ticks);
}
BENCHMARK(BM_DecodeTick);

// ---- Scalar-vs-SIMD dispatch cases -------------------------------------
// One case per (kernel, supported level), registered from main() with
// unique names like `micro_pack_interleaved[avx2]` so the --bench-json
// records stay distinguishable. Levels the host or build cannot run are
// simply not registered, so the binary works everywhere. Every level is
// bit-identical by contract — these cases measure speed only.

void MicroPackInterleaved(benchmark::State& state, simd::Level level) {
  const auto codes = random_codes(8 * 4096, 1);
  std::vector<std::uint32_t> out(codes.size() / 8);
  const auto& ops = simd::ops_for(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.pack_u4_interleaved(out.size(), codes.data(), out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(codes.size()));
}

void MicroRepack(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  const auto q = bench_qweights(256, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::marlin_repack(q));
  }
  simd::reset_level();
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}

void MicroMatmul(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  const auto q = bench_qweights(256, 256);
  const auto mw = layout::marlin_repack(q);
  Rng rng(8);
  Matrix<Half> a(16, 256);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 256; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  core::KernelConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::marlin_matmul(a.view(), mw, cfg, 8));
  }
  simd::reset_level();
  state.SetItemsProcessed(state.iterations() * 16 * 256 * 256 * 2);
}

void register_micro_dispatch_cases() {
  using Fn = void (*)(benchmark::State&, simd::Level);
  const std::pair<const char*, Fn> kernels[] = {
      {"micro_pack_interleaved", MicroPackInterleaved},
      {"micro_repack", MicroRepack},
      {"micro_matmul", MicroMatmul},
  };
  for (const auto level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::supported(level)) continue;
    for (const auto& [name, fn] : kernels) {
      const std::string full =
          std::string(name) + "[" + simd::to_string(level) + "]";
      benchmark::RegisterBenchmark(
          full.c_str(), [fn, level](benchmark::State& s) { fn(s, level); });
    }
  }
}

/// Console output as usual, plus a copy of every finished run so main()
/// can append the micro dispatch records to --bench-json FILE.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Finished {
    std::string name;
    std::int64_t iterations;
    double real_s;  // accumulated over all iterations
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      runs_.push_back(
          {run.benchmark_name(), run.iterations, run.real_accumulated_time});
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  [[nodiscard]] const std::vector<Finished>& runs() const { return runs_; }

 private:
  std::vector<Finished> runs_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strips `--bench-json FILE`
// (google-benchmark rejects flags it does not know), registers the
// per-level dispatch cases, and appends their records after the run.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bench-json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--bench-json=", 0) == 0) {
      json_path = a.substr(sizeof("--bench-json=") - 1);
    } else {
      args.push_back(argv[i]);
    }
  }

  register_micro_dispatch_cases();

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    for (const auto& run : reporter.runs()) {
      if (run.name.rfind("micro_", 0) != 0) continue;
      // The level is baked into the name: `micro_repack[avx512]`.
      const auto open = run.name.find('[');
      const auto close = run.name.find(']');
      std::string level = "scalar";
      if (open != std::string::npos && close != std::string::npos &&
          close > open) {
        level = run.name.substr(open + 1, close - open - 1);
      }
      std::ostringstream rec;
      rec << "  {\"bench\": \"" << run.name
          << "\", \"wall_s\": " << marlin::format_double(run.real_s, 6)
          << ", \"points\": " << run.iterations << ", \"threads\": 1"
          << ", \"simd\": \"" << level << "\"}";
      marlin::bench::append_bench_json_record(json_path, rec.str());
    }
  }
  return 0;
}
