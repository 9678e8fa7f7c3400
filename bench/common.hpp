#pragma once
// Shared helpers for the figure/table benchmark binaries.
//
// Every bench binary accepts `--threads N` (0/absent = MARLIN_THREADS env,
// then hardware concurrency; 1 = bit-identical serial mode) and fans its
// sweep points out on the SimContext's shared pool via run_sweep. Results
// are collected by point index and printed afterwards, so the table output
// is byte-identical at every thread count.
//
// Serving benches (fig15/fig16/bench_serve_scheduler) additionally accept:
//   --seed S     workload-trace seed (default 42). The trace generator is
//                a fixed-seed deterministic Rng, so the same seed
//                reproduces the identical arrival/length trace on every
//                platform and thread count — goldens rely on seed 42.
//   --policy P   scheduler admission policy: fcfs | sjf | max-util | wfq
//                (default fcfs, the goldens configuration; wfq is the
//                multi-tenant weighted-fair policy).
//
// Every binary also answers `--help` via `maybe_print_help` below, which
// is the single source of flag documentation at runtime and rejects any
// flag the binary does not declare.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/kernel_model.hpp"
#include "core/problem.hpp"
#include "gpusim/clock.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/sched/scheduler.hpp"
#include "serve/sched/workload.hpp"
#include "serve/server_sim.hpp"
#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "util/error.hpp"
#include "util/sim_context.hpp"
#include "util/table.hpp"

namespace marlin::bench {

/// One `--flag VALUE` / description pair for the shared help printer.
struct FlagHelp {
  std::string flag;
  std::string text;
};

/// The flag name of a help entry: "--seed S" -> "seed".
inline std::string flag_name(const FlagHelp& f) {
  const std::size_t end = f.flag.find(' ');
  return f.flag.substr(2, end == std::string::npos ? end : end - 2);
}

/// Shared `--help` handling and flag validation for every bench and
/// example binary. With `--help` it prints the binary's one-line summary,
/// the universal `--threads` and `--simd` flags, the binary-specific
/// flags (the first entry per flag wins), and `--help` itself, then
/// exits. Otherwise it throws a `marlin::Error` on any flag that is
/// neither universal (`--threads`, `--simd`, `--bench-json`, `--help`)
/// nor declared in `flags`, so a typo fails instead of being ignored.
/// Call right after constructing the CliArgs so neither runs a sweep.
inline void maybe_print_help(const CliArgs& args, const std::string& binary,
                             const std::string& summary,
                             std::vector<FlagHelp> flags = {}) {
  std::vector<FlagHelp> all;
  all.push_back({"--threads N",
                 "worker threads; 0/absent = MARLIN_THREADS env, then "
                 "hardware concurrency; 1 = bit-identical serial mode"});
  all.push_back({"--simd L",
                 "SIMD dispatch level: scalar | avx2 | avx512 | auto "
                 "(default: MARLIN_SIMD env, then auto-detect; every level "
                 "is bit-identical by contract)"});
  for (auto& f : flags) {
    const bool seen = std::any_of(all.begin(), all.end(), [&](const auto& a) {
      return flag_name(a) == flag_name(f);
    });
    if (!seen) all.push_back(std::move(f));
  }
  all.push_back({"--help", "print this help and exit"});
  if (!args.get_bool("help", false)) {
    for (const std::string& name : args.flag_names()) {
      const bool known =
          name == "bench-json" ||
          std::any_of(all.begin(), all.end(),
                      [&](const auto& a) { return flag_name(a) == name; });
      if (!known) {
        throw Error("unknown flag --" + name + " (see --help)");
      }
    }
    return;
  }
  std::size_t width = 0;
  for (const auto& f : all) width = std::max(width, f.flag.size());
  std::cout << binary << " — " << summary << "\n\nFlags:\n";
  for (const auto& f : all) {
    std::cout << "  " << f.flag << std::string(width - f.flag.size() + 2, ' ')
              << f.text << "\n";
  }
  std::exit(0);
}

/// Shared `main` for bench and example binaries: runs `body` and turns a
/// `marlin::Error` escaping it (a bad flag value, an invalid serving
/// configuration) or a `std::bad_alloc` (a configuration too large to
/// hold) into one `<binary>: error: <message>` line on stderr and exit
/// code 2, instead of `std::terminate` and exit 134.
inline int run_main(int argc, char** argv, int (*body)(int, char**)) {
  const auto fail = [&](std::string msg) {
    std::string binary = argc > 0 ? argv[0] : "marlin";
    binary = binary.substr(binary.find_last_of('/') + 1);
    std::replace(msg.begin(), msg.end(), '\n', ' ');
    std::cerr << binary << ": error: " << msg << "\n";
    return 2;
  };
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    return fail(e.what());
  } catch (const std::bad_alloc&) {
    return fail("out of memory: the configuration is too large to simulate");
  }
}

/// Every flag `parse_serve_cli` reads, with its help text: the one list
/// the serving binaries (fig15/fig16/bench_serve_*/serving_simulation)
/// declare. The qps/duration defaults are the binary's own, as passed to
/// `parse_serve_cli`. `unused` names flags the binary sweeps itself
/// instead of reading (say "policy" for a bench that runs every policy);
/// they are left out, so `maybe_print_help` rejects them. Entries the
/// binary lists before these win, which lets it describe, for example,
/// which config its `--trace-out` run records.
inline std::vector<FlagHelp> serving_flag_help(
    double default_qps, double default_duration_s,
    const std::vector<std::string>& unused = {}) {
  std::ostringstream qps;
  std::ostringstream duration;
  qps << "mean arrival rate (default " << default_qps << ")";
  duration << "arrival window seconds (default " << default_duration_s
           << ")";
  std::vector<FlagHelp> flags{
      {"--seed S", "workload-trace seed (default 42; goldens use 42)"},
      {"--qps Q", qps.str()},
      {"--duration S", duration.str()},
      {"--workload W", "arrival shape: poisson | bursty | sharegpt"},
      {"--policy P",
       "scheduler admission policy: fcfs | sjf | max-util | wfq"},
      {"--prefix-cache",
       "enable the hashed prefix cache (reuses cached shared-prefix KV "
       "blocks at admission; default off, the goldens configuration)"},
      {"--prefix-cache-blocks N",
       "cap on evicted-but-cached blocks kept for reuse (0 = every free "
       "block may stay cached; only meaningful with --prefix-cache)"},
      {"--trace-out FILE",
       "write a Chrome/Perfetto trace of one recorded serial re-run of a "
       "representative config (stderr announce; golden stdout untouched)"},
      {"--metrics-out FILE",
       "write the Prometheus-style metrics exposition of the same recorded "
       "run"}};
  std::erase_if(flags, [&](const FlagHelp& f) {
    return std::find(unused.begin(), unused.end(), flag_name(f)) !=
           unused.end();
  });
  return flags;
}

/// Help entry for `--bench-json` (golden benches construct a
/// BenchJsonReporter and should list this).
inline FlagHelp bench_json_flag_help() {
  return {"--bench-json FILE",
          "append {bench, wall_s, points, threads, simd} to the JSON array "
          "in FILE (the checked-in BENCH_<pr>.json perf trajectory)"};
}

/// The serving flags every serving binary (fig15/fig16/bench_serve_* and
/// examples/serving_simulation) repeats, parsed once. Defaults for
/// qps/duration vary per bench and are passed in; the rest are the
/// goldens configuration.
struct ServeCliOptions {
  std::uint64_t seed = 42;
  serve::sched::SchedPolicy policy = serve::sched::SchedPolicy::kFcfs;
  serve::sched::WorkloadShape workload =
      serve::sched::WorkloadShape::kPoisson;
  double qps = 0;
  double duration_s = 0;
  /// `--prefix-cache` / `--prefix-cache-blocks`: hashed prefix cache over
  /// full prompt blocks (off by default, the goldens configuration).
  bool prefix_cache = false;
  index_t prefix_cache_blocks = 0;
  /// `--trace-out` / `--metrics-out` destinations (empty = off, the
  /// default — the sweep itself always runs recorder-free).
  std::string trace_out;
  std::string metrics_out;

  /// Copies the prefix-cache flags onto a ServingConfig.
  void apply_prefix_cache(serve::ServingConfig& cfg) const {
    cfg.prefix_cache.enabled = prefix_cache;
    cfg.prefix_cache.max_cached_blocks = prefix_cache_blocks;
  }
};

inline ServeCliOptions parse_serve_cli(const CliArgs& args,
                                       double default_qps = 1.0,
                                       double default_duration_s = 120.0) {
  ServeCliOptions o;
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  o.policy = serve::sched::policy_by_name(args.get_string("policy", "fcfs"));
  o.workload =
      serve::sched::workload_by_name(args.get_string("workload", "poisson"));
  o.qps = args.get_double("qps", default_qps);
  o.duration_s = args.get_double("duration", default_duration_s);
  o.prefix_cache = args.get_bool("prefix-cache", false);
  o.prefix_cache_blocks =
      static_cast<index_t>(args.get_int("prefix-cache-blocks", 0));
  o.trace_out = args.get_string("trace-out", "");
  o.metrics_out = args.get_string("metrics-out", "");
  return o;
}

/// `--trace-out` / `--metrics-out` implementation shared by every serving
/// bench: re-runs `cfg` once, serially, with an observability recorder
/// attached, and writes the Perfetto trace / metrics exposition files.
/// The recorded run is separate from the (recorder-free) golden sweep and
/// announces on stderr only, so the golden-diffed stdout never changes.
/// Because the simulation is deterministic and the recorder formats every
/// float with fixed precision, the written files are byte-identical at
/// every `--threads` setting and across repeat runs.
inline void maybe_write_observation(const ServeCliOptions& cli,
                                    const serve::Engine& engine,
                                    serve::ServingConfig cfg) {
  if (cli.trace_out.empty() && cli.metrics_out.empty()) return;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ServeRecorder rec(cli.trace_out.empty() ? nullptr : &trace,
                         cli.metrics_out.empty() ? nullptr : &metrics);
  cfg.recorder = &rec;
  (void)serve::simulate_cluster_detailed(engine, cfg);
  std::ostringstream note;
  if (!cli.trace_out.empty()) {
    trace.write_file(cli.trace_out);
    note << "[obs] trace: " << cli.trace_out << " (" << trace.events().size()
         << " events)\n";
  }
  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out);
    out << metrics.expose();
    MARLIN_CHECK(out.good(),
                 "failed writing metrics to " << cli.metrics_out);
    note << "[obs] metrics: " << cli.metrics_out << "\n";
  }
  std::cerr << note.str();
}

/// Applies `--simd L` (wins over MARLIN_SIMD; "auto" drops back to the
/// env/auto-detect precedence) and announces the active dispatch level
/// once, on *stderr* — the golden-diffed stdout stream never changes with
/// the level, because every level is bit-identical by contract.
inline void apply_simd_flag(const CliArgs& args) {
  const std::string flag = args.get_string("simd", "");
  if (flag == "auto") {
    simd::reset_level();
  } else if (!flag.empty()) {
    simd::set_level(simd::level_by_name(flag));
  }
  static bool announced = false;
  if (!announced) {
    announced = true;
    std::ostringstream os;
    os << "[simd] level: " << simd::to_string(simd::active_level()) << "\n";
    std::cerr << os.str();
  }
}

/// Context for a bench main(): honours --threads / MARLIN_THREADS and the
/// universal --simd flag. This overload is for benches that also read
/// their own flags from the CliArgs.
inline SimContext make_context(const CliArgs& args) {
  apply_simd_flag(args);
  return make_sim_context(args);
}

/// Same, straight from main()'s arguments.
inline SimContext make_context(int argc, const char* const* argv) {
  return make_context(CliArgs(argc, argv));
}

/// Runs fn over every sweep point on the context's pool and returns the
/// results in point order (deterministic output regardless of threading).
/// fn must only touch its own point; nested kernel-level parallel_for
/// calls degrade to inline execution on pool workers by design.
template <typename Point, typename Fn>
auto run_sweep(const SimContext& ctx, const std::vector<Point>& points,
               Fn&& fn) {
  using R = std::invoke_result_t<Fn&, const Point&>;
  static_assert(std::is_default_constructible_v<R>,
                "run_sweep results are pre-sized by point index");
  std::vector<R> results(points.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(points.size()),
                   [&](std::int64_t i) {
                     results[static_cast<std::size_t>(i)] =
                         fn(points[static_cast<std::size_t>(i)]);
                   });
  return results;
}

/// Wall-clock of one sweep section, reported on *stderr* so stdout (the
/// golden-diffed table stream) stays byte-identical across thread counts.
class SweepTimer {
 public:
  explicit SweepTimer(const SimContext& ctx, std::string label)
      : label_(std::move(label)), threads_(ctx.num_threads()),
        start_(std::chrono::steady_clock::now()) {}
  ~SweepTimer() {
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    // Compose the line off-stream and emit it as one write, after pushing
    // any buffered table output out first. When stdout and stderr are
    // piped into the same file (`bench ... &> log`), the piecewise
    // streaming this replaces could interleave fragments of the timing
    // line into the middle of a table row.
    std::ostringstream line;
    line << "[sweep] " << label_ << ": " << format_double(s, 3)
         << " s (threads=" << threads_ << ")\n";
    std::cout.flush();
    std::cerr << line.str();
  }

 private:
  std::string label_;
  unsigned threads_;
  std::chrono::steady_clock::time_point start_;
};

/// Appends one already-formatted record (no trailing newline) to the JSON
/// array in `path`, creating the file if needed. The file keeps one
/// record per line; callers run sequentially under the `bench-json`
/// target, so there is no concurrent writer.
inline void append_bench_json_record(const std::string& path,
                                     const std::string& rec) {
  std::string body;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    body = buf.str();
  }
  const std::size_t close = body.rfind(']');
  std::ofstream out(path, std::ios::trunc);
  if (close == std::string::npos) {
    out << "[\n" << rec << "\n]\n";
  } else {
    body.resize(close);
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
    const bool was_empty_array = body.empty() || body.back() == '[';
    out << body << (was_empty_array ? "\n" : ",\n") << rec << "\n]\n";
  }
}

/// Machine-readable perf record for the checked-in BENCH_<pr>.json
/// trajectory (ROADMAP's recorded perf series). When the binary is run
/// with `--bench-json FILE`, the reporter appends one JSON object —
/// bench name, wall seconds, sweep-point count, thread count, active
/// SIMD dispatch level — to the JSON array in FILE on destruction
/// (creating the file if needed).
/// Without the flag it is inert, so golden runs (which never pass it)
/// are untouched; the wall-time goes to the side file, never to the
/// golden-diffed stdout.
class BenchJsonReporter {
 public:
  BenchJsonReporter(const CliArgs& args, const SimContext& ctx,
                    std::string bench)
      : path_(args.get_string("bench-json", "")), bench_(std::move(bench)),
        threads_(ctx.num_threads()),
        start_(std::chrono::steady_clock::now()) {}

  /// Number of simulations/sweep points the bench ran (the record's
  /// work-size field).
  void set_points(std::size_t n) { points_ = n; }

  /// Appends an extra numeric field to the record (e.g. the prefix
  /// bench's cache_hit_rate / blocks_saved). Deterministic simulation
  /// outputs only — wall time stays the one non-reproducible field.
  void set_extra(const std::string& key, double value, int decimals = 4) {
    extras_ += ", \"" + key + "\": " + format_double(value, decimals);
  }

  ~BenchJsonReporter() {
    if (path_.empty()) return;
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    std::ostringstream rec;
    rec << "  {\"bench\": \"" << bench_ << "\", \"wall_s\": "
        << format_double(wall_s, 3) << ", \"points\": " << points_
        << ", \"threads\": " << threads_ << ", \"simd\": \""
        << simd::to_string(simd::active_level()) << "\"" << extras_ << "}";
    append_bench_json_record(path_, rec.str());
  }

 private:
  std::string path_;
  std::string bench_;
  std::string extras_;
  std::size_t points_ = 0;
  unsigned threads_;
  std::chrono::steady_clock::time_point start_;
};

/// The paper's Figure 1/10/12/13 matrix: "16bit x 4bit (group=128) mul with
/// 72k x 18k matrix" — K = 18432 (reduction), N = 73728 (output).
inline core::MatmulProblem fig1_problem(index_t m) {
  return {m, 18432, 73728, 128, false};
}

inline const std::vector<index_t>& fig1_batches() {
  static const std::vector<index_t> b{1, 2, 4, 8, 16, 32, 64, 128};
  return b;
}

/// Prints one speedup-over-FP16 row per kernel, one column per batch size —
/// the exact series of the corresponding paper figure. All (kernel, batch)
/// estimates are fanned out on the context.
inline void print_speedup_over_fp16(
    const SimContext& ctx, std::ostream& os, const std::string& title,
    const gpusim::DeviceSpec& device, gpusim::ClockMode mode,
    const std::vector<std::string>& kernels,
    const std::vector<index_t>& batches,
    const std::function<core::MatmulProblem(index_t)>& problem) {
  const gpusim::ClockModel clock{mode};

  std::vector<core::MatmulProblem> points;
  points.reserve(batches.size());
  for (const auto m : batches) points.push_back(problem(m));
  const auto fp16 = baselines::make_kernel_model("fp16")->estimate_sweep(
      ctx, points, device, clock);

  struct KernelSweep {
    std::string name;
    std::vector<gpusim::KernelEstimate> est;
  };
  const auto sweeps = run_sweep(
      ctx, kernels, [&](const std::string& name) {
        return KernelSweep{name,
                           baselines::make_kernel_model(name)->estimate_sweep(
                               ctx, points, device, clock)};
      });

  os << title << "\n";
  std::vector<std::string> header{"kernel \\ batch"};
  for (const auto m : batches) header.push_back(std::to_string(m));
  Table table(header);
  for (const auto& sweep : sweeps) {
    std::vector<double> row;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      row.push_back(fp16[i].seconds / sweep.est[i].seconds);
    }
    table.add_row_numeric(sweep.name, row, 2);
  }
  table.print(os);
  os << "\n";
}

}  // namespace marlin::bench
