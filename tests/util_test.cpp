// Unit tests for the util module: units, RNG + distributions, histograms,
// stats, config parsing, tables, channels and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/args.hpp"
#include "util/channel.hpp"
#include "util/config.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace lu = lobster::util;

// ---------------------------------------------------------------- units ----

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(lu::minutes(1), 60.0);
  EXPECT_DOUBLE_EQ(lu::hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(lu::days(1), 86400.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_DOUBLE_EQ(lu::kib(1), 1024.0);
  EXPECT_DOUBLE_EQ(lu::mb(1), 1e6);
  EXPECT_DOUBLE_EQ(lu::gbit_per_s(10), 10e9 / 8.0);
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(lu::format_duration(5.0), "5.0s");
  EXPECT_EQ(lu::format_duration(90.0), "1m30s");
  EXPECT_EQ(lu::format_duration(3660.0), "1h01m");
  EXPECT_EQ(lu::format_duration(2 * 86400.0 + 3 * 3600.0), "2d03h");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(lu::format_bytes(512), "512 B");
  EXPECT_EQ(lu::format_bytes(3.4e9), "3.40 GB");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  lu::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependent) {
  lu::Rng root(7);
  lu::Rng a = root.stream("worker", 0);
  lu::Rng b = root.stream("worker", 1);
  lu::Rng c = root.stream("squid");
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
  // Streams must be reproducible.
  lu::Rng a2 = lu::Rng(7).stream("worker", 0);
  a = lu::Rng(7).stream("worker", 0);
  EXPECT_EQ(a(), a2());
}

TEST(Rng, UniformRange) {
  lu::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  lu::Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    saw_lo |= v == -3;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  lu::Rng rng(3);
  lu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(10.0, 5.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 5.0, 0.1);
}

TEST(Rng, TruncatedNormalRespectsFloor) {
  lu::Rng rng(4);
  for (int i = 0; i < 10000; ++i)
    EXPECT_GE(rng.truncated_normal(1.0, 5.0, 0.5), 0.5);
}

TEST(Rng, ExponentialMean) {
  lu::Rng rng(5);
  lu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(42.0));
  EXPECT_NEAR(s.mean(), 42.0, 1.0);
}

TEST(Rng, ChanceProbability) {
  lu::Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ZipfRankOneMostPopular) {
  lu::Rng rng(8);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50000; ++i)
    counts[static_cast<std::size_t>(rng.zipf(10, 1.2))]++;
  for (int k = 2; k <= 10; ++k) EXPECT_GT(counts[1], counts[k]);
}

TEST(EmpiricalDistribution, QuantilesAndSampling) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(static_cast<double>(i));
  lu::EmpiricalDistribution dist(samples);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 1000.0);
  EXPECT_NEAR(dist.quantile(0.5), 500.5, 1.0);
  lu::Rng rng(10);
  lu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), 5.0);
}

TEST(EmpiricalDistribution, MeanIsTheSortedAccumulateBitForBit) {
  // Magnitudes spread over ten decades so the sum depends on its order: the
  // cached mean must be the sorted-order std::accumulate, exactly.
  lu::Rng rng(2015);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(std::pow(10.0, rng.uniform(-5.0, 5.0)));
  const lu::EmpiricalDistribution dist(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double expected = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                          static_cast<double>(sorted.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.mean()),
            std::bit_cast<std::uint64_t>(expected));
  EXPECT_EQ(lu::EmpiricalDistribution().mean(), 0.0);
  EXPECT_EQ(lu::EmpiricalDistribution(std::vector<double>{}).mean(), 0.0);
}

// ------------------------------------------------------------ histogram ----

TEST(Histogram, FillAndRetrieve) {
  lu::Histogram h(10, 0.0, 10.0);
  h.fill(0.5);
  h.fill(0.7);
  h.fill(9.5);
  h.fill(-1.0);   // underflow
  h.fill(100.0);  // overflow
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_EQ(h.entries(), 5u);
}

TEST(Histogram, CustomEdges) {
  lu::Histogram h({0.0, 1.0, 10.0, 100.0});
  h.fill(5.0, 2.5);
  EXPECT_EQ(h.nbins(), 3u);
  EXPECT_DOUBLE_EQ(h.count(1), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, DensityNormalises) {
  lu::Histogram h(4, 0.0, 4.0);
  for (double x : {0.5, 1.5, 1.7, 3.5}) h.fill(x);
  auto d = h.density();
  double sum = 0.0;
  for (double v : d) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(lu::Histogram(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(5, 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(lu::Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Binomial, EstimateAndError) {
  const auto e = lu::binomial_estimate(25, 100);
  EXPECT_DOUBLE_EQ(e.p, 0.25);
  EXPECT_NEAR(e.sigma, std::sqrt(0.25 * 0.75 / 100.0), 1e-12);
  const auto zero = lu::binomial_estimate(0, 0);
  EXPECT_DOUBLE_EQ(zero.p, 0.0);
  EXPECT_DOUBLE_EQ(zero.sigma, 0.0);
}

TEST(TimeSeries, AddAndSample) {
  lu::TimeSeries ts(0.0, 10.0);
  ts.add(1.0);
  ts.add(5.0);
  ts.add(15.0, 2.0);
  ts.sample(2.0, 100.0);
  ts.sample(8.0, 200.0);
  EXPECT_DOUBLE_EQ(ts.sum(0), 2.0);
  EXPECT_DOUBLE_EQ(ts.sum(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_level(0), 150.0);
  EXPECT_DOUBLE_EQ(ts.mean_level(1), 0.0);
  EXPECT_DOUBLE_EQ(ts.total(), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_sum(), 2.0);
}

// ---------------------------------------------------------------- stats ----

TEST(RunningStats, MeanVarianceMinMax) {
  lu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  lu::Rng rng(11);
  lu::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

// --------------------------------------------------------------- config ----

TEST(Config, ParseBasics) {
  const auto cfg = lu::Config::parse(R"(
[workflow]
dataset = /SingleMu/Run2012A  # comment
task_size = 25
merge_size = 3.5GB
task_overhead = 20m
streaming = true
inputs = a.root, b.root , c.root
)");
  EXPECT_EQ(cfg.get_string("workflow", "dataset"), "/SingleMu/Run2012A");
  EXPECT_EQ(cfg.get_int("workflow", "task_size"), 25);
  EXPECT_DOUBLE_EQ(cfg.get_size("workflow", "merge_size"), 3.5e9);
  EXPECT_DOUBLE_EQ(cfg.get_duration("workflow", "task_overhead"), 1200.0);
  EXPECT_TRUE(cfg.get_bool("workflow", "streaming"));
}

TEST(Config, FallbacksAndHas) {
  const auto cfg = lu::Config::parse("[a]\nx = 1\n");
  EXPECT_TRUE(cfg.has("a", "x"));
  EXPECT_FALSE(cfg.has("a", "y"));
  EXPECT_FALSE(cfg.has("b", "x"));
  EXPECT_EQ(cfg.get_int("a", "y", -7), -7);
  EXPECT_EQ(cfg.get_string("b", "x", "dflt"), "dflt");
}

TEST(Config, SyntaxErrors) {
  EXPECT_THROW(lu::Config::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse("keywithoutvalue\n"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse("= novalue\n"), std::runtime_error);
}

TEST(Config, DurationAndSizeParsing) {
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("90"), 90.0);
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("1.5h"), 5400.0);
  EXPECT_DOUBLE_EQ(lu::Config::parse_duration("2d"), 172800.0);
  EXPECT_THROW(lu::Config::parse_duration("5 parsecs"), std::runtime_error);
  EXPECT_DOUBLE_EQ(lu::Config::parse_size("100MB"), 1e8);
  EXPECT_DOUBLE_EQ(lu::Config::parse_size("1GiB"), 1073741824.0);
  EXPECT_THROW(lu::Config::parse_size("1 furlong"), std::runtime_error);
}

// A unit with no number, or NaN, is a scenario typo: it must fail the run,
// not read as 0 (or NaN) and silently reshape it.  inf stays legal.
TEST(Config, SizesAndDurationsNeedANumber) {
  EXPECT_THROW(lu::Config::parse_size("GB"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse_size(""), std::runtime_error);
  EXPECT_THROW(lu::Config::parse_duration("h"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse_size("nan"), std::runtime_error);
  EXPECT_THROW(lu::Config::parse_duration("nan h"), std::runtime_error);
  const auto cfg = lu::Config::parse(
      "[workflow]\ninput_per_tasklet = MB\nread_fraction = nan\n"
      "time_cap = inf\n");
  EXPECT_THROW((void)cfg.get_size("workflow", "input_per_tasklet"),
               std::runtime_error);
  EXPECT_THROW((void)cfg.get_double("workflow", "read_fraction"),
               std::runtime_error);
  EXPECT_EQ(cfg.get_duration("workflow", "time_cap"),
            std::numeric_limits<double>::infinity());
}

TEST(Config, RoundTrip) {
  lu::Config cfg;
  cfg.set("s", "k", "v");
  cfg.set("s", "n", "42");
  const auto parsed = lu::Config::parse(cfg.to_string());
  EXPECT_EQ(parsed.get_string("s", "k"), "v");
  EXPECT_EQ(parsed.get_int("s", "n"), 42);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersAlignedCells) {
  lu::Table t({"Task Phase", "Time (h)"});
  t.row({"Task CPU Time", "171036"});
  t.row({"WQ Stage In", "22056"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Task CPU Time"), std::string::npos);
  EXPECT_NE(s.find("| Task Phase"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, BarScaling) {
  EXPECT_EQ(lu::bar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(lu::bar(20.0, 10.0, 10).size(), 10u);  // clamped
  EXPECT_TRUE(lu::bar(0.0, 10.0, 10).empty());
  EXPECT_TRUE(lu::bar(1.0, 0.0, 10).empty());
}

// -------------------------------------------------------------- channel ----

TEST(Channel, SendReceiveOrder) {
  lu::Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.send(3);
  EXPECT_EQ(ch.receive(), 1);
  EXPECT_EQ(ch.receive(), 2);
  EXPECT_EQ(ch.receive(), 3);
}

TEST(Channel, CloseDrainsThenNullopt) {
  lu::Channel<int> ch;
  ch.send(7);
  ch.close();
  EXPECT_FALSE(ch.send(8));
  EXPECT_EQ(ch.receive(), 7);
  EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, CrossThreadTransfer) {
  lu::Channel<int> ch;
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    while (auto v = ch.receive()) sum += *v;
  });
  std::thread producer([&] {
    for (int i = 1; i <= 100; ++i) ch.send(i);
    ch.close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), 5050);
}

// ----------------------------------------------------------- threadpool ----

TEST(ThreadPool, ExecutesAllTasks) {
  lu::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitThenSubmitMore) {
  lu::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  lu::ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

// ---------------------------------------------------------------- args ----

namespace {
struct Walked {
  long long seeds = 1;
  long long jobs = 1;
  std::string availability;
  std::string scenario;
};

// The campaign flags (--seeds N >= 1, --jobs M >= 0) beside a value flag
// and one positional, declared in one loop the way lobster_sim declares
// them.
Walked walk(std::vector<const char*> argv) {
  Walked w;
  lu::Args args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
                "[scenario.ini] [--seeds N] [--jobs M] [--availability S]");
  while (args.next()) {
    if (args.is("--seeds"))
      w.seeds = args.integer(1);
    else if (args.is("--jobs"))
      w.jobs = args.integer(0);
    else if (args.is("--availability"))
      w.availability = args.text();
    else if (w.scenario.empty() && args.positional())
      w.scenario = args.token();
    else
      args.usage();
  }
  return w;
}

// A rejected command line names its fault, prints the usage line, exits 2.
void expect_usage(const std::vector<const char*>& argv,
                  const std::string& why) {
  EXPECT_EXIT(walk(argv), ::testing::ExitedWithCode(2),
              "error: " + why + ".*usage: bench ");
}
}  // namespace

TEST(CampaignFlagsTest, ParsesSeedsAndJobs) {
  const Walked w = walk({"bench", "--seeds", "4", "--jobs", "2"});
  EXPECT_EQ(w.seeds, 4);
  EXPECT_EQ(w.jobs, 2);
  const Walked d = walk({"bench"});
  EXPECT_EQ(d.seeds, 1);
  EXPECT_EQ(d.jobs, 1);
  EXPECT_TRUE(d.scenario.empty());
}

// The declared positional is taken once; a second one is not silently
// dropped (lobster_sim a.ini b.ini used to run only a.ini).
TEST(CampaignFlagsTest, UndeclaredPositionalRejected) {
  EXPECT_EQ(walk({"bench", "scenario.ini"}).scenario, "scenario.ini");
  expect_usage({"bench", "a.ini", "b.ini"}, "unexpected argument 'b.ini'");
}

TEST(CampaignFlagsTest, RejectsBadValues) {
  expect_usage({"bench", "--seeds", "0"}, "bad value for --seeds: '0'");
  expect_usage({"bench", "--seeds"}, "--seeds needs a value");
}

// std::atoll would have turned these into 0 (then silently into hardware
// concurrency for --jobs); strict parsing must reject them loudly.
TEST(CampaignFlagsTest, RejectsNonNumericValues) {
  expect_usage({"bench", "--jobs", "abc"}, "bad value for --jobs: 'abc'");
  // Trailing garbage after a valid prefix is just as wrong.
  expect_usage({"bench", "--seeds", "4x"}, "bad value for --seeds: '4x'");
  expect_usage({"bench", "--jobs", "-2"}, "bad value for --jobs: '-2'");
}

// A typo like `--seed 5` used to be silently ignored — the run proceeded
// with the default seed while the user believed they had swept five.
TEST(CampaignFlagsTest, RejectsUnknownFlags) {
  expect_usage({"bench", "--seed", "5"}, "unexpected argument '--seed'");
  expect_usage({"bench", "--frobnicate"}, "unexpected argument '--frobnicate'");
}

// A value is the next token as it is, even when it starts with "--"; it is
// consumed, never re-read as a flag.
TEST(CampaignFlagsTest, ValueMayStartWithDashes) {
  const Walked w = walk({"bench", "scenario.ini", "--availability", "--odd",
                         "--seeds", "3"});
  EXPECT_EQ(w.availability, "--odd");
  EXPECT_EQ(w.seeds, 3);
  EXPECT_EQ(w.scenario, "scenario.ini");
  expect_usage({"bench", "--availability"}, "--availability needs a value");
}
