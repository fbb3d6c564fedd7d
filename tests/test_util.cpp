// Unit tests for util: RNG determinism/streams, stats, histogram, table,
// options parsing, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/histogram.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_bounded(17), 17u);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(7);
  EXPECT_EQ(rng.next_bounded(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_bounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.next());
  int overlap = 0;
  for (int i = 0; i < 1000; ++i) {
    if (first.count(b.next())) ++overlap;
  }
  EXPECT_EQ(overlap, 0);
}

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Percentile, ExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
}

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
}

TEST(Boxplot, FiveNumberSummary) {
  const BoxplotSummary b = boxplot({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.median, 5);
  EXPECT_DOUBLE_EQ(b.max, 9);
  EXPECT_DOUBLE_EQ(b.mean, 5);
  EXPECT_EQ(b.count, 9u);
}

TEST(Boxplot, EmptyInputIsZeroed) {
  const BoxplotSummary b = boxplot({});
  EXPECT_EQ(b.count, 0u);
  EXPECT_DOUBLE_EQ(b.mean, 0);
}

TEST(CdfAt, Fractions) {
  std::vector<double> sorted{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(cdf_at(sorted, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(sorted, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(sorted, 10.0), 1.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 2.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.25);   // bin 1
  h.add(1.99);   // bin 9
  h.add(5.0);    // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(10), 1u);
  EXPECT_DOUBLE_EQ(h.percent(0), 25.0);
  EXPECT_DOUBLE_EQ(h.cumulative_percent(9), 75.0);
}

TEST(Histogram, NegativeValuesClampToFirstBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.count(0), 1u);
}

TEST(Histogram, MergeSumsIdenticalGeometry) {
  Histogram a(0.0, 2.0, 10);
  Histogram b(0.0, 2.0, 10);
  a.add(0.05);
  a.add(5.0);  // overflow
  b.add(0.05);
  b.add(1.99);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(9), 1u);
  EXPECT_EQ(a.count(10), 1u);
  EXPECT_EQ(b.total(), 2u);  // source untouched
}

TEST(Histogram, PercentileInterpolatesWithinBin) {
  Histogram h(0.0, 10.0, 10);
  // 100 samples uniform over [0, 10): percentile ~= value.
  for (int i = 0; i < 100; ++i) h.add(i * 0.1);
  EXPECT_NEAR(h.percentile(50), 5.0, 0.2);
  EXPECT_NEAR(h.percentile(90), 9.0, 0.2);
  EXPECT_NEAR(h.percentile(100), 10.0, 0.2);

  Histogram empty(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);  // lo for empty

  Histogram over(0.0, 1.0, 4);
  over.add(9.0);
  EXPECT_DOUBLE_EQ(over.percentile(50), 1.0);  // overflow reports hi
}

TEST(Histogram, PercentileMonotone) {
  Histogram h(0.0, 4.0, 8);
  h.add(0.3);
  h.add(1.1);
  h.add(1.2);
  h.add(3.7);
  double prev = 0.0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(AsciiTable, RendersAlignedRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(AsciiTable, Humanize) {
  EXPECT_EQ(AsciiTable::humanize(999), "999");
  EXPECT_EQ(AsciiTable::humanize(1500), "1.50K");
  EXPECT_EQ(AsciiTable::humanize(117185083ULL), "117.19M");
  EXPECT_EQ(AsciiTable::humanize(106557960965ULL), "106.56B");
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog",       "positional", "--alpha=3",
                        "--beta",     "4",          "--gamma=x",
                        "--flag"};
  Options o(7, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("alpha", 0), 3);
  EXPECT_EQ(o.get_int("beta", 0), 4);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get("gamma"), "x");
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "positional");
  EXPECT_EQ(o.get_double("missing", 2.5), 2.5);
}

TEST(Options, BareFlagConsumesNextBareToken) {
  // Documented ambiguity of the --key value form: a bare token after a
  // bare --key is taken as its value.
  const char* argv[] = {"prog", "--flag", "positional"};
  Options o(3, const_cast<char**>(argv));
  EXPECT_EQ(o.get("flag"), "positional");
  EXPECT_TRUE(o.positional().empty());
}

TEST(Options, RejectsValuesThatAreNotOneNumber) {
  const char* argv[] = {"prog",       "--queries", "ten",      "--k=3x",
                        "--empty=",   "--rate",    "1.5e2",    "--neg=-4",
                        "--big=99999999999999999999", "--nan=nan",
                        "--bare",     "--pad= 7"};
  Options o(12, const_cast<char**>(argv));
  EXPECT_THROW((void)o.get_int("queries", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("k", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("empty", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("big", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("bare", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("pad", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("rate", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("k", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("empty", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("nan", 1), std::invalid_argument);
  EXPECT_EQ(o.get_double("rate", 0), 150.0);
  EXPECT_EQ(o.get_int("neg", 0), -4);
  EXPECT_EQ(o.get_double("neg", 0), -4.0);
  EXPECT_EQ(o.get_int("missing", 9), 9);
  try {
    (void)o.get_int("queries", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--queries"), std::string::npos);
  }
}

TEST(Options, KeysListsEveryFlag) {
  const char* argv[] = {"prog", "--b=1", "pos", "--a", "2", "--c"};
  Options o(6, const_cast<char**>(argv));
  EXPECT_EQ(o.keys(), (std::vector<std::string>{"a", "b", "c"}));
}

// Flags range-checks every value it reads and rejects any flag nobody
// read; each rejection is a FlagError naming the flag.
TEST(Flags, RangeChecksAndRejectsUnreadFlags) {
  const char* argv[] = {"prog",          "--queries", "ten",   "--k=300",
                        "--linger=-1",   "--typo=1"};
  const Options o(6, const_cast<char**>(argv));
  Flags f(o);
  EXPECT_THROW((void)f.num("queries", 1), FlagError);
  EXPECT_THROW((void)f.num("k", 3, 0, 255), FlagError);
  EXPECT_THROW((void)f.real("linger", 0.01, 0.0, 1.0), FlagError);
  EXPECT_EQ(f.num("machines", 4, 1, 64), 4);
  try {
    f.done();
    FAIL() << "expected FlagError for --typo";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--typo"), std::string::npos);
  }
  EXPECT_EQ(f.str("typo"), "1");
  EXPECT_NO_THROW(f.done());
}

TEST(Logging, LevelGatesOutput) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  CGRAPH_LOG_INFO("should be suppressed %d", 1);
  CGRAPH_LOG_ERROR("should appear %d", 2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  set_log_level(original);
  EXPECT_EQ(err.find("suppressed"), std::string::npos);
  EXPECT_NE(err.find("should appear 2"), std::string::npos);
  EXPECT_NE(err.find("ERROR"), std::string::npos);
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForReportsStats) {
  ThreadPool pool(3);
  const ParallelForStats stats =
      pool.parallel_for(1000, [](std::size_t) {});
  // Caller chunk + up to one chunk per worker.
  EXPECT_GE(stats.tasks, 1u);
  EXPECT_LE(stats.tasks, 4u);
  EXPECT_GE(stats.join_wait_seconds, 0.0);
  EXPECT_EQ(pool.parallel_for(0, [](std::size_t) {}).tasks, 0u);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  // Index 900 lands in a worker chunk (caller takes the first chunk).
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   executed.fetch_add(1);
                                   if (i == 900) {
                                     throw std::runtime_error("worker boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_GT(executed.load(), 0);
}

TEST(ThreadPool, ParallelForPropagatesCallerException) {
  ThreadPool pool(3);
  // Index 0 is always in the calling thread's chunk. All worker futures
  // must still be joined before the rethrow (no dangling captures).
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("caller boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> hits{0};
  pool.parallel_for(100, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, ParallelRangesCoversExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  const ParallelForStats stats = parallel_ranges(
      &pool, 1000, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(stats.tasks, 1u);
}

TEST(ThreadPool, ParallelRangesNullPoolRunsSerially) {
  std::vector<int> hits(100, 0);
  const ParallelForStats stats = parallel_ranges(
      nullptr, 100, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
  EXPECT_EQ(stats.tasks, 1u);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ResolveComputeThreads) {
  EXPECT_EQ(resolve_compute_threads(3), 3u);
  EXPECT_GE(resolve_compute_threads(0), 1u);  // 0 = hardware concurrency
}

TEST(Timer, StopwatchAccumulates) {
  StopWatch w;
  w.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  w.stop();
  const double first = w.seconds();
  EXPECT_GT(first, 0.004);
  w.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  w.stop();
  EXPECT_GT(w.seconds(), first);
}

}  // namespace
}  // namespace cgraph
