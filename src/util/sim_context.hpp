#pragma once
// SimContext — the execution session every layer of the simulator shares.
//
// One explicitly-passed context owns the lazily-started shared ThreadPool
// and the thread-count policy, so kernels (core/), analytic models
// (baselines/, eval/) and the sweep harness (bench/common.hpp) all draw
// parallelism from a single place instead of threading raw ThreadPool
// pointers through every signature.
//
// Policy resolution (first match wins):
//   1. an explicit thread count (the `--threads` CLI flag),
//   2. the MARLIN_THREADS environment variable,
//   3. hardware concurrency.
// A count of 1 forces bit-identical serial mode: parallel_for runs inline
// and no pool is ever started.
//
// Nesting rule: outer sweep-level parallelism and inner per-SM kernel
// parallelism compose without oversubscription or deadlock because a
// parallel_for issued from a pool worker (i.e. from inside another
// parallel_for) degrades to inline execution. Results are bit-identical
// either way — tasks are index-addressed and order-independent.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "util/threadpool.hpp"

namespace marlin {

class CliArgs;

class SimContext {
 public:
  /// Most executors a context may run: the pool starts one OS thread per
  /// executor but the caller, so a larger count is refused, not started.
  static constexpr unsigned kMaxThreads = 1024;

  /// n_threads == 0 resolves via MARLIN_THREADS, then hardware concurrency;
  /// n_threads == 1 forces serial mode (no pool, inline execution). Throws
  /// when the resolved count exceeds kMaxThreads.
  explicit SimContext(unsigned n_threads = 0);

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// Total executor count (pool workers + the participating caller).
  [[nodiscard]] unsigned num_threads() const noexcept { return n_threads_; }
  [[nodiscard]] bool serial() const noexcept { return n_threads_ == 1; }

  /// The shared pool, started on first use; nullptr in serial mode. The
  /// pool has num_threads() - 1 workers because parallel_for's caller
  /// claims chunks too.
  [[nodiscard]] ThreadPool* pool() const;

  /// Runs fn(i) for i in [begin, end). Executes inline in serial mode,
  /// for single-index ranges, and when called from a pool worker (the
  /// nesting guard); otherwise fans out on the shared pool. Results must
  /// be index-addressed by fn so every mode is bit-identical. The
  /// determinism guarantee covers successful runs only: when fn throws,
  /// the first exception propagates but which other indices ran differs
  /// between the inline path (stops at the throw) and the pooled path
  /// (sibling chunks still complete).
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& fn) const;

  /// The thread-count policy: `requested` if nonzero, else a positive
  /// MARLIN_THREADS, else hardware concurrency (clamped to [1,
  /// kMaxThreads]). Throws when the first two exceed kMaxThreads.
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);

  /// Process-wide serial context — the default for kernel entry points so
  /// existing call sites keep their exact behaviour.
  [[nodiscard]] static const SimContext& serial_context();

 private:
  unsigned n_threads_ = 1;
  mutable std::unique_ptr<ThreadPool> owned_;
  mutable std::once_flag started_;
};

/// Context for a binary's `--threads` flag (0/absent = auto policy);
/// throws unless it is in [0, SimContext::kMaxThreads].
[[nodiscard]] SimContext make_sim_context(const CliArgs& args);

}  // namespace marlin
