#include "util/sim_context.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace marlin {

SimContext::SimContext(unsigned n_threads)
    : n_threads_(resolve_threads(n_threads)) {}

ThreadPool* SimContext::pool() const {
  if (serial()) return nullptr;
  std::call_once(started_, [this] {
    owned_ = std::make_unique<ThreadPool>(n_threads_ - 1);
  });
  return owned_.get();
}

void SimContext::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t)>& fn) const {
  if (begin >= end) return;
  if (serial() || end - begin == 1 || ThreadPool::on_worker_thread()) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool()->parallel_for(begin, end, fn);
}

unsigned SimContext::resolve_threads(unsigned requested) {
  long n = requested;
  const char* env = std::getenv("MARLIN_THREADS");
  if (n == 0 && env != nullptr) n = std::strtol(env, nullptr, 10);
  MARLIN_CHECK(n <= static_cast<long>(kMaxThreads),
               "thread count " << n << " (--threads or MARLIN_THREADS) "
                               << "exceeds the maximum of " << kMaxThreads);
  if (n > 0) return static_cast<unsigned>(n);
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
}

const SimContext& SimContext::serial_context() {
  static const SimContext ctx(1);
  return ctx;
}

SimContext make_sim_context(const CliArgs& args) {
  const std::int64_t threads = args.get_int("threads", 0);
  MARLIN_CHECK(threads >= 0 && threads <= SimContext::kMaxThreads,
               "--threads must be in [0, " << SimContext::kMaxThreads
                                           << "] (0 = auto)");
  return SimContext(static_cast<unsigned>(threads));
}

}  // namespace marlin
