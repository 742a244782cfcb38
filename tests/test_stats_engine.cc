/**
 * @file
 * Exactness and work-bound tests for the incremental statistics engine
 * (core::StatsCache).
 *
 * The engine's contract is bit-for-bit equality with the batch
 * recomputations in src/stats — that is what keeps the calibration
 * baseline byte-identical whichever branch answers. The batch reference
 * is the size cutover at SIZE_MAX. These tests compare
 * raw double bits (not EXPECT_DOUBLE_EQ, which would mask one-ulp
 * drift), across appends, duplicates, constant data, and NaNs, and pin
 * the deterministic work counters that stand in for wall-clock
 * sub-linearity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "rng/sampler.hh"
#include "rng/xoshiro.hh"
#include "simd/kernels.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/similarity.hh"

namespace
{

using sharp::core::SampleSeries;
using sharp::core::StatsEngineCounters;
namespace stats = sharp::stats;

/** Bitwise double equality: NaN == NaN, -0.0 != 0.0, no ulp slack. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

std::vector<double>
lognormalDraws(uint64_t seed, size_t n)
{
    sharp::rng::Xoshiro256 gen(seed);
    sharp::rng::LogNormalSampler sampler(1.0, 0.7);
    return sampler.sampleMany(gen, n);
}

/** Cutover that routes every accessor to the batch branch. */
constexpr size_t kBatchEverywhere = std::numeric_limits<size_t>::max();

/**
 * Fixture forcing the size cutover to 0: the series in these tests are
 * tens to hundreds of samples — below the production cutover, where
 * every accessor would route to the batch branch and the incremental
 * structures under test would never run. The cutover's own routing is
 * covered by the SizeCutover* tests, which set it explicitly; TearDown
 * restores the shipped default.
 */
class StatsEngine : public ::testing::Test
{
  protected:
    void SetUp() override { sharp::core::setStatsCacheCutover(0); }
    void TearDown() override
    {
        sharp::core::setStatsCacheCutover(
            sharp::core::kDefaultStatsCacheCutover);
    }
};

TEST_F(StatsEngine, SortedViewMatchesStdSortAcrossAppends)
{
    auto xs = lognormalDraws(1, 700);
    SampleSeries s;
    std::vector<double> reference;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        // Read the sorted view at irregular points, including right
        // after the first append and around tail-merge boundaries.
        if (i % 63 == 0 || i + 1 == xs.size()) {
            reference.assign(xs.begin(),
                             xs.begin() + static_cast<long>(i + 1));
            std::sort(reference.begin(), reference.end());
            ASSERT_EQ(s.stats().sorted(), reference) << "at n=" << i + 1;
        }
    }
}

TEST_F(StatsEngine, OrderStatAgreesWithSortedWithoutMerging)
{
    auto xs = lognormalDraws(2, 500);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 41 != 0)
            continue;
        // Query order statistics while the tail is unmerged; the
        // two-runs search must agree with the fully merged array.
        size_t n = i + 1;
        std::vector<double> sorted(xs.begin(),
                                   xs.begin() + static_cast<long>(n));
        std::sort(sorted.begin(), sorted.end());
        for (size_t k : {size_t{0}, n / 3, n / 2, n - 1})
            EXPECT_TRUE(bitEqual(s.stats().orderStat(k), sorted[k]))
                << "n=" << n << " k=" << k;
    }
    EXPECT_THROW(s.stats().orderStat(xs.size()), std::out_of_range);
}

TEST_F(StatsEngine, QuantileBitEqualToBatch)
{
    auto xs = lognormalDraws(3, 321);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    for (double p : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
        std::vector<double> copy = xs;
        EXPECT_TRUE(
            bitEqual(s.stats().quantile(p), stats::quantile(copy, p)))
            << "p=" << p;
    }
}

TEST_F(StatsEngine, KsHalvesBitEqualToBatchAtEverySize)
{
    auto xs = lognormalDraws(4, 400);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i < 1)
            continue;
        double batch = stats::ksDistance(s.firstHalf(), s.secondHalf());
        EXPECT_TRUE(bitEqual(s.stats().ksHalves(), batch))
            << "n=" << i + 1;
    }
}

TEST_F(StatsEngine, KsHalvesHandlesDuplicateHeavyData)
{
    // Discrete data exercises the tie-group logic in the sorted walk
    // and ambiguous boundary migration between the half runs.
    sharp::rng::Xoshiro256 gen(5);
    SampleSeries s;
    for (size_t i = 0; i < 300; ++i) {
        s.append(static_cast<double>(gen.next() % 7));
        if (i < 1)
            continue;
        double batch = stats::ksDistance(s.firstHalf(), s.secondHalf());
        ASSERT_TRUE(bitEqual(s.stats().ksHalves(), batch))
            << "n=" << i + 1;
    }
}

TEST_F(StatsEngine, ConstantSeriesIsExactEverywhere)
{
    SampleSeries s;
    for (int i = 0; i < 64; ++i)
        s.append(3.25);
    EXPECT_TRUE(bitEqual(s.stats().ksHalves(), 0.0));
    EXPECT_TRUE(bitEqual(s.stats().quantile(0.5), 3.25));
    EXPECT_TRUE(bitEqual(s.stats().mean(), 3.25));
    auto ci = s.stats().medianCi(0.95);
    auto batch = stats::medianCi(s.values(), 0.95);
    EXPECT_TRUE(bitEqual(ci.lower, batch.lower));
    EXPECT_TRUE(bitEqual(ci.upper, batch.upper));
}

TEST_F(StatsEngine, NansOrderLastDeterministically)
{
    // std::sort on raw NaN data is undefined behavior; the engine's
    // comparator is a strict weak ordering that places NaNs last, so
    // the sorted view is still deterministic.
    double nan = std::numeric_limits<double>::quiet_NaN();
    SampleSeries s;
    for (double v : {2.0, nan, 1.0, 3.0, nan, 0.5})
        s.append(v);
    const auto &sorted = s.stats().sorted();
    ASSERT_EQ(sorted.size(), 6u);
    EXPECT_DOUBLE_EQ(sorted[0], 0.5);
    EXPECT_DOUBLE_EQ(sorted[1], 1.0);
    EXPECT_DOUBLE_EQ(sorted[2], 2.0);
    EXPECT_DOUBLE_EQ(sorted[3], 3.0);
    EXPECT_TRUE(std::isnan(sorted[4]));
    EXPECT_TRUE(std::isnan(sorted[5]));
}

TEST_F(StatsEngine, PrefixRangeMatchesArrivalOrderScan)
{
    auto xs = lognormalDraws(6, 200);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    for (size_t count : {size_t{1}, size_t{7}, size_t{128}, xs.size()}) {
        double lo = xs[0], hi = xs[0];
        for (size_t i = 1; i < count; ++i) {
            lo = std::min(lo, xs[i]);
            hi = std::max(hi, xs[i]);
        }
        auto [cl, ch] = s.stats().prefixRange(count);
        EXPECT_TRUE(bitEqual(cl, lo)) << "count=" << count;
        EXPECT_TRUE(bitEqual(ch, hi)) << "count=" << count;
    }
    EXPECT_THROW(s.stats().prefixRange(0), std::out_of_range);
    EXPECT_THROW(s.stats().prefixRange(xs.size() + 1), std::out_of_range);
}

TEST_F(StatsEngine, MeanAndCisBitEqualToBatch)
{
    auto xs = lognormalDraws(7, 333);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 47 != 0 || i < 2)
            continue;
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        EXPECT_TRUE(bitEqual(s.stats().mean(), stats::mean(prefix)));
        auto ci = s.stats().meanCi(0.95);
        auto batch = stats::meanCi(prefix, 0.95);
        EXPECT_TRUE(bitEqual(ci.lower, batch.lower)) << "n=" << i + 1;
        EXPECT_TRUE(bitEqual(ci.upper, batch.upper)) << "n=" << i + 1;
        auto rt = s.stats().meanCiRightTailed(0.95);
        auto rtb = stats::meanCiRightTailed(prefix, 0.95);
        EXPECT_TRUE(bitEqual(rt.lower, rtb.lower)) << "n=" << i + 1;
        EXPECT_TRUE(bitEqual(rt.upper, rtb.upper)) << "n=" << i + 1;
    }
}

TEST_F(StatsEngine, WarmMedianCiTracksBatchAcrossGrowth)
{
    // The warm-started k search must pick the batch scan's k at every
    // size, across the n<6 closed form, the cold scan, and warm
    // up/down walks as coverage shifts.
    auto xs = lognormalDraws(8, 450);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        for (double level : {0.90, 0.95}) {
            auto warm = s.stats().medianCi(level);
            auto batch = stats::medianCi(prefix, level);
            ASSERT_TRUE(bitEqual(warm.lower, batch.lower))
                << "n=" << i + 1 << " level=" << level;
            ASSERT_TRUE(bitEqual(warm.upper, batch.upper))
                << "n=" << i + 1 << " level=" << level;
            ASSERT_TRUE(bitEqual(warm.level, batch.level))
                << "n=" << i + 1 << " level=" << level;
        }
    }
}

TEST_F(StatsEngine, QuantileCiBitEqualToBatch)
{
    auto xs = lognormalDraws(9, 260);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        if (i % 29 != 0 || i < 10)
            continue;
        std::vector<double> prefix(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        auto ci = s.stats().quantileCi(0.95, 0.95);
        auto batch = stats::quantileCi(prefix, 0.95, 0.95);
        ASSERT_TRUE(bitEqual(ci.lower, batch.lower)) << "n=" << i + 1;
        ASSERT_TRUE(bitEqual(ci.upper, batch.upper)) << "n=" << i + 1;
    }
}

TEST_F(StatsEngine, KillSwitchPreservesValuesBitForBit)
{
    // Incremental (cutover 0, from SetUp) against the batch reference
    // (cutover SIZE_MAX) on the same data.
    auto xs = lognormalDraws(10, 257);
    SampleSeries cached, batch;
    for (double v : xs) {
        cached.append(v);
        batch.append(v);
    }
    double ks_on = cached.stats().ksHalves();
    auto med_on = cached.stats().medianCi(0.95);
    double q_on = cached.stats().quantile(0.75);
    sharp::core::setStatsCacheCutover(kBatchEverywhere);
    double ks_off = batch.stats().ksHalves();
    auto med_off = batch.stats().medianCi(0.95);
    double q_off = batch.stats().quantile(0.75);
    EXPECT_TRUE(bitEqual(ks_on, ks_off));
    EXPECT_TRUE(bitEqual(med_on.lower, med_off.lower));
    EXPECT_TRUE(bitEqual(med_on.upper, med_off.upper));
    EXPECT_TRUE(bitEqual(q_on, q_off));
}

TEST_F(StatsEngine, MemoizedReadsDoNoWork)
{
    auto xs = lognormalDraws(11, 1000);
    SampleSeries s;
    for (double v : xs)
        s.append(v);
    s.stats().ksHalves();
    StatsEngineCounters before = s.stats().counters();
    s.stats().ksHalves(); // same version: memo hit
    s.stats().ksHalves();
    StatsEngineCounters delta = s.stats().counters() - before;
    EXPECT_EQ(delta.total(), 0u);
}

TEST_F(StatsEngine, StructuralWorkPerAppendIsSubLinear)
{
    // The deterministic stand-in for the wall-clock claim: per
    // append-and-read, the engine's comparator work must not grow
    // linearly with n. Batch mode (cutover SIZE_MAX) re-sorts, so its
    // count is >= n log n; the engine's amortized count (cutover 0)
    // stays polylogarithmic plus the occasional merge.
    auto work_per_eval = [](size_t n, bool cached) {
        sharp::core::setStatsCacheCutover(cached ? 0 : kBatchEverywhere);
        auto xs = lognormalDraws(12, n + 64);
        SampleSeries s;
        for (size_t i = 0; i < n; ++i)
            s.append(xs[i]);
        s.stats().ksHalves();
        s.stats().medianCi(0.95);
        StatsEngineCounters before = s.stats().counters();
        for (size_t i = 0; i < 64; ++i) {
            s.append(xs[n + i]);
            s.stats().ksHalves();
            s.stats().medianCi(0.95);
        }
        StatsEngineCounters delta = s.stats().counters() - before;
        return delta;
    };

    StatsEngineCounters incr = work_per_eval(10000, true);
    StatsEngineCounters batch = work_per_eval(10000, false);
    // Batch re-sorts ~10^4 elements per eval (> 10^5 comparator calls);
    // the engine must be at least 10x below it, and the warm median
    // search must beat the cold coverage scan by 5x.
    EXPECT_LT(incr.comparisons * 10, batch.comparisons);
    EXPECT_LT(incr.pmfEvals * 5, batch.pmfEvals);

    // And the engine's own work must grow sub-linearly: 10x the data
    // must cost far less than 10x the comparisons per eval.
    StatsEngineCounters small = work_per_eval(1000, true);
    EXPECT_LT(incr.comparisons, small.comparisons * 5);
}

TEST_F(StatsEngine, ClearInvalidatesAndRecovers)
{
    SampleSeries s;
    for (double v : lognormalDraws(13, 50))
        s.append(v);
    s.stats().sorted();
    s.clear();
    EXPECT_TRUE(s.empty());
    s.append(2.0);
    s.append(1.0);
    const auto &sorted = s.stats().sorted();
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_DOUBLE_EQ(sorted[0], 1.0);
    EXPECT_DOUBLE_EQ(sorted[1], 2.0);
    EXPECT_TRUE(bitEqual(s.stats().ksHalves(),
                         stats::ksDistance({2.0}, {1.0})));
}

TEST_F(StatsEngine, CopyAndMoveRebuildCachesSafely)
{
    auto xs = lognormalDraws(14, 120);
    SampleSeries a;
    for (double v : xs)
        a.append(v);
    double ks = a.stats().ksHalves();

    SampleSeries copy = a; // cache not copied; rebuilt lazily
    EXPECT_TRUE(bitEqual(copy.stats().ksHalves(), ks));
    copy.append(1.0);
    EXPECT_TRUE(bitEqual(a.stats().ksHalves(), ks)); // original intact

    SampleSeries moved = std::move(copy);
    EXPECT_EQ(moved.size(), xs.size() + 1);
    double moved_ks = moved.stats().ksHalves();
    double batch =
        stats::ksDistance(moved.firstHalf(), moved.secondHalf());
    EXPECT_TRUE(bitEqual(moved_ks, batch));

    SampleSeries assigned;
    assigned.append(9.0);
    assigned.stats().sorted();
    assigned = a;
    EXPECT_TRUE(bitEqual(assigned.stats().ksHalves(), ks));
}

TEST_F(StatsEngine, VersionBumpsOnAppendAndClear)
{
    SampleSeries s;
    uint64_t v0 = s.version();
    s.append(1.0);
    EXPECT_GT(s.version(), v0);
    uint64_t v1 = s.version();
    s.clear();
    EXPECT_GT(s.version(), v1);
}

TEST_F(StatsEngine, FastKsWalkMatchesReferenceOnAdversarialData)
{
    // The integer-guarded sorted walk must reproduce the reference
    // double walk bit for bit, including tie groups that span both
    // samples and one side exhausting mid-group.
    sharp::rng::Xoshiro256 gen(15);
    for (int trial = 0; trial < 200; ++trial) {
        size_t na = 1 + gen.next() % 40;
        size_t nb = 1 + gen.next() % 40;
        std::vector<double> a(na), b(nb);
        uint64_t radix = 1 + trial % 9;
        for (auto &v : a)
            v = static_cast<double>(gen.next() % radix);
        for (auto &v : b)
            v = static_cast<double>(gen.next() % radix);
        if (trial % 17 == 0)
            std::fill(a.begin(), a.end(), 4.0);
        if (trial % 23 == 0)
            std::fill(b.begin(), b.end(), 4.0);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_TRUE(bitEqual(stats::ksDistanceSorted(a, b),
                             sharp::simd::detail::ksSortedReferenceScalar(
                                 a.data(), a.size(), b.data(), b.size())))
            << "trial " << trial;
    }
}

TEST_F(StatsEngine, SizeCutoverSetterRoundTripsAndDefaultIsSane)
{
    // SetUp forced 0; the setter must round-trip arbitrary values and
    // the compile-time default must match what batchMode() assumes.
    EXPECT_EQ(sharp::core::statsCacheCutover(), 0u);
    sharp::core::setStatsCacheCutover(7);
    EXPECT_EQ(sharp::core::statsCacheCutover(), 7u);
    sharp::core::setStatsCacheCutover(
        sharp::core::kDefaultStatsCacheCutover);
    EXPECT_EQ(sharp::core::statsCacheCutover(), 256u);
}

TEST_F(StatsEngine, SizeCutoverRoutesSmallSeriesToBatchExactly)
{
    // At sizes at or below the shipped cutover, the engine must run the
    // identical code the batch reference (cutover SIZE_MAX) runs: same
    // values bit for bit AND exactly the same deterministic work
    // counters — the small-n no-overhead guarantee the cutover exists
    // for.
    auto xs = lognormalDraws(77, 120);

    auto run = [&](size_t cutover) {
        sharp::core::setStatsCacheCutover(cutover);
        SampleSeries s;
        std::vector<double> values;
        for (double v : xs) {
            s.append(v);
            if (s.size() % 13 == 0) {
                values.push_back(s.stats().quantile(0.5));
                values.push_back(s.stats().mean());
                values.push_back(s.stats().ksHalves());
            }
        }
        return std::make_pair(values, s.stats().counters());
    };
    auto [cached_values, cached_work] =
        run(sharp::core::kDefaultStatsCacheCutover);
    auto [batch_values, batch_work] = run(kBatchEverywhere);

    ASSERT_EQ(cached_values.size(), batch_values.size());
    for (size_t i = 0; i < cached_values.size(); ++i)
        EXPECT_TRUE(bitEqual(cached_values[i], batch_values[i])) << i;
    EXPECT_EQ(cached_work.comparisons, batch_work.comparisons);
    EXPECT_EQ(cached_work.pmfEvals, batch_work.pmfEvals);
}

TEST_F(StatsEngine, SizeCutoverCrossingStaysBitExact)
{
    // Grow a series across the cutover boundary. Below it, accessors
    // run batch-style and the incremental structures see nothing; the
    // first access above it must ingest the entire backlog and carry
    // on bit-for-bit — this is the batch-to-incremental handoff.
    sharp::core::setStatsCacheCutover(32);
    auto xs = lognormalDraws(78, 100);
    SampleSeries s;
    for (size_t i = 0; i < xs.size(); ++i) {
        s.append(xs[i]);
        std::vector<double> sorted(xs.begin(),
                                   xs.begin() + static_cast<long>(i + 1));
        std::sort(sorted.begin(), sorted.end());
        ASSERT_TRUE(bitEqual(s.stats().quantile(0.75),
                             stats::quantileSorted(sorted, 0.75)))
            << "n=" << i + 1;
        ASSERT_EQ(s.stats().sorted(), sorted) << "n=" << i + 1;
    }
}

} // anonymous namespace
