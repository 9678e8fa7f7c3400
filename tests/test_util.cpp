// util substrate: matrices, rng, stats, table, cli, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <sstream>

#include "common.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/sim_context.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace marlin {
namespace {

TEST(Matrix, BasicAccessAndViews) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = 42;
  const auto v = m.view();
  EXPECT_EQ(v(1, 2), 42);
  EXPECT_EQ(v.stride(), 4);
}

TEST(Matrix, BlockViewIsZeroCopy) {
  Matrix<int> m(4, 4, 0);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) m(i, j) = static_cast<int>(i * 4 + j);
  }
  auto b = m.view().block(1, 2, 2, 2);
  EXPECT_EQ(b(0, 0), 6);
  EXPECT_EQ(b(1, 1), 11);
  b(0, 0) = -1;
  EXPECT_EQ(m(1, 2), -1);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  Matrix<int> m(4, 4, 0);
  EXPECT_THROW((void)m.view().block(2, 2, 3, 1), Error);
}

TEST(Matrix, NegativeDimsThrow) {
  EXPECT_THROW((void)Matrix<int>(-1, 4), Error);
  EXPECT_THROW((void)Matrix<int>(4, -3), Error);
  EXPECT_THROW((void)Matrix<float>(-2, -2), Error);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(3);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.exponential(4.0);
  EXPECT_NEAR(mean(xs), 0.25, 0.01);
}

TEST(Rng, StudentTHeavierTailsThanNormal) {
  Rng rng(4);
  int t_extreme = 0, n_extreme = 0;
  for (int i = 0; i < 50000; ++i) {
    if (std::abs(rng.student_t(4.0)) > 3.0) ++t_extreme;
    if (std::abs(rng.normal()) > 3.0) ++n_extreme;
  }
  EXPECT_GT(t_extreme, 2 * n_extreme);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, RelativeFrobenius) {
  const std::vector<float> a{3.0f, 4.0f};
  const std::vector<float> b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(relative_frobenius_error(a, b), 0.0);
  const std::vector<float> c{0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(relative_frobenius_error(a, c), 1.0);
}

TEST(Table, Aligns) {
  Table t({"kernel", "speedup"});
  t.add_row({"marlin", "3.87"});
  t.add_row_numeric("fp16", {1.0}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("marlin"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(FormatHelpers, HumanUnits) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(2.5e-3), "2.500 ms");
  EXPECT_EQ(format_seconds(3.2e-6), "3.200 us");
  EXPECT_EQ(format_bytes(1536.0), "1.50 KiB");
  EXPECT_EQ(format_bytes(2.0 * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",       "--m=16", "--device",
                        "a10",        "positional", "--enable"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("m", 0), 16);
  EXPECT_EQ(args.get_string("device", ""), "a10");
  EXPECT_TRUE(args.get_bool("enable", false));
  EXPECT_EQ(args.get_int("missing", 99), 99);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.flag_names(),
            (std::vector<std::string>{"device", "enable", "m"}));
}

TEST(Cli, NumbersParseWholeOrThrowNamingTheFlag) {
  const char* argv[] = {"prog", "--a=3x", "--b=", "--c=1e400", "--d=2.5",
                        "--e=99999999999999999999", "--f", "--g=-3"};
  const CliArgs args(8, argv);
  const auto error = [](auto get) {
    try {
      (void)get();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error([&] { return args.get_double("a", 0); }),
            "--a expects a double-precision number, got '3x'");
  EXPECT_EQ(error([&] { return args.get_int("b", 0); }),
            "--b expects a 64-bit integer, got ''");
  EXPECT_EQ(error([&] { return args.get_double("c", 0); }),
            "--c expects a double-precision number, got '1e400'");
  EXPECT_EQ(error([&] { return args.get_int("d", 0); }),
            "--d expects a 64-bit integer, got '2.5'");
  EXPECT_EQ(error([&] { return args.get_int("e", 0); }),
            "--e expects a 64-bit integer, got '99999999999999999999'");
  EXPECT_EQ(error([&] { return args.get_int("f", 0); }),
            "--f expects a 64-bit integer, got 'true'");
  EXPECT_EQ(args.get_int("g", 0), -3);
  EXPECT_EQ(args.get_double("d", 0), 2.5);
}

TEST(RunMain, BadAllocEndsInOneLineAndExit2) {
  char prog[] = "/some/dir/prog";
  char* argv[] = {prog, nullptr};
  testing::internal::CaptureStderr();
  EXPECT_EQ(bench::run_main(1, argv, [](int, char**) -> int {
              throw std::bad_alloc();
            }),
            2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: error: out of memory: the configuration is too large to "
            "simulate\n");
}

// The pool is reached through SimContext — the only supported owner.
TEST(ThreadPool, RunsAllIndices) {
  const SimContext ctx(5);  // 4 workers + caller
  std::vector<std::atomic<int>> hits(100);
  ctx.pool()->parallel_for(0, 100, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  const SimContext ctx(3);
  EXPECT_THROW(ctx.pool()->parallel_for(0, 8,
                                        [&](std::int64_t i) {
                                          if (i == 5) throw Error("boom");
                                        }),
               Error);
}

TEST(ThreadPool, EmptyRangeNoop) {
  const SimContext ctx(3);
  ctx.pool()->parallel_for(5, 5, [](std::int64_t) { FAIL(); });
}

TEST(ErrorMacro, MessageContainsContext) {
  try {
    MARLIN_CHECK(1 == 2, "value was " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace marlin
