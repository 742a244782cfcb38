/**
 * @file
 * Tests for the ECDF and the Kolmogorov–Smirnov statistics — the
 * backbone of SHARP's distribution comparisons and its headline
 * stopping rule. The two-sample distance is checked against the
 * reference walk (simd::detail::ksSortedReferenceScalar), the oracle
 * every dispatched KS kernel must reproduce bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "rng/sampler.hh"
#include "simd/kernels.hh"
#include "stats/ecdf.hh"
#include "stats/similarity.hh"

namespace
{

using namespace sharp::stats;
using sharp::rng::NormalSampler;
using sharp::rng::UniformSampler;
using sharp::rng::Xoshiro256;

/** One-sample KS of an unsorted sample, through the sorted form. */
double
oneSampleKs(std::vector<double> xs,
            const std::function<double(double)> &cdf)
{
    std::sort(xs.begin(), xs.end());
    return ksStatisticAgainstSorted(xs, cdf);
}

TEST(Ecdf, StepFunctionValues)
{
    Ecdf f({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(f(0.5), 0.0);
    EXPECT_DOUBLE_EQ(f(1.0), 0.25);
    EXPECT_DOUBLE_EQ(f(2.5), 0.5);
    EXPECT_DOUBLE_EQ(f(4.0), 1.0);
    EXPECT_DOUBLE_EQ(f(99.0), 1.0);
}

TEST(Ecdf, HandlesTies)
{
    Ecdf f({1.0, 1.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(f(1.0), 0.75);
}

TEST(Ecdf, InverseReturnsOrderStatistics)
{
    Ecdf f({10.0, 20.0, 30.0, 40.0});
    EXPECT_DOUBLE_EQ(f.inverse(0.0), 10.0);
    EXPECT_DOUBLE_EQ(f.inverse(0.25), 10.0);
    EXPECT_DOUBLE_EQ(f.inverse(0.26), 20.0);
    EXPECT_DOUBLE_EQ(f.inverse(1.0), 40.0);
}

TEST(Ecdf, RejectsEmptySample)
{
    EXPECT_THROW(Ecdf({}), std::invalid_argument);
}

TEST(KsStatistic, IdenticalSamplesGiveZero)
{
    std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(ksDistance(xs, xs), 0.0);
}

TEST(KsStatistic, DisjointSamplesGiveOne)
{
    EXPECT_DOUBLE_EQ(ksDistance({1.0, 2.0, 3.0}, {10.0, 11.0}), 1.0);
}

TEST(KsStatistic, KnownSmallSampleValue)
{
    // F1 jumps at {1,2}, F2 jumps at {1.5, 2.5}: max gap is 0.5 at 1
    // and again at 2 — hand-checkable.
    EXPECT_DOUBLE_EQ(ksDistance({1.0, 2.0}, {1.5, 2.5}), 0.5);
}

TEST(KsStatistic, SymmetricInArguments)
{
    std::vector<double> a = {1.0, 3.0, 5.0, 7.0};
    std::vector<double> b = {2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(ksDistance(a, b), ksDistance(b, a));
}

TEST(KsStatistic, BoundedInUnitInterval)
{
    Xoshiro256 gen(1);
    NormalSampler n1(0.0, 1.0), n2(0.5, 2.0);
    for (int trial = 0; trial < 20; ++trial) {
        auto a = n1.sampleMany(gen, 50);
        auto b = n2.sampleMany(gen, 70);
        double d = ksDistance(a, b);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

TEST(KsStatistic, TiesAcrossSamplesExact)
{
    // All mass at the same point: distributions identical.
    EXPECT_DOUBLE_EQ(ksDistance({5.0, 5.0}, {5.0, 5.0, 5.0}), 0.0);
    // Two-thirds vs one-half below the tie point.
    EXPECT_NEAR(ksDistance({1.0, 1.0, 2.0}, {1.0, 2.0}),
                2.0 / 3.0 - 0.5, 1e-12);
}

TEST(KsStatistic, ConsistentForSameDistribution)
{
    // For same-distribution samples, D -> 0 as n grows.
    Xoshiro256 gen(2);
    NormalSampler sampler(10.0, 1.0);
    auto a = sampler.sampleMany(gen, 4000);
    auto b = sampler.sampleMany(gen, 4000);
    EXPECT_LT(ksDistance(a, b), 0.05);
}

TEST(KsStatistic, DetectsLocationShift)
{
    Xoshiro256 gen(3);
    NormalSampler s1(10.0, 1.0), s2(11.0, 1.0);
    auto a = s1.sampleMany(gen, 2000);
    auto b = s2.sampleMany(gen, 2000);
    // Theoretical D for unit-sd normals 1 sd apart is 2*Phi(0.5)-1 ~ .383
    EXPECT_NEAR(ksDistance(a, b), 0.383, 0.05);
}

TEST(KsStatistic, MatchesBruteForceEvaluation)
{
    Xoshiro256 gen(4);
    UniformSampler sampler(0.0, 1.0);
    auto a = sampler.sampleMany(gen, 37);
    auto b = sampler.sampleMany(gen, 53);

    Ecdf fa(a), fb(b);
    double brute = 0.0;
    for (double x : a)
        brute = std::max(brute, std::fabs(fa(x) - fb(x)));
    for (double x : b)
        brute = std::max(brute, std::fabs(fa(x) - fb(x)));
    EXPECT_NEAR(ksDistance(a, b), brute, 1e-12);
}

TEST(KsStatistic, EcdfOverloadAgrees)
{
    std::vector<double> a = {1.0, 2.0, 2.0, 3.0};
    std::vector<double> b = {1.5, 2.5};
    EXPECT_DOUBLE_EQ(
        ksDistanceSorted(Ecdf(a).sortedSample(), Ecdf(b).sortedSample()),
        ksDistance(a, b));
}

TEST(KsStatistic, RejectsEmpty)
{
    EXPECT_THROW(ksDistance({}, {1.0}), std::invalid_argument);
    EXPECT_THROW(ksDistance({1.0}, {}), std::invalid_argument);
}

TEST(OneSampleKs, PerfectFitIsSmall)
{
    // ECDF of uniform data against the true uniform CDF: D ~ 1/sqrt(n).
    Xoshiro256 gen(5);
    UniformSampler sampler(0.0, 1.0);
    auto xs = sampler.sampleMany(gen, 1000);
    double d = oneSampleKs(xs, [](double x) {
        if (x <= 0.0)
            return 0.0;
        if (x >= 1.0)
            return 1.0;
        return x;
    });
    EXPECT_LT(d, 0.06);
}

TEST(OneSampleKs, WrongModelIsLarge)
{
    Xoshiro256 gen(6);
    NormalSampler sampler(0.5, 0.1);
    auto xs = sampler.sampleMany(gen, 1000);
    // Theoretical sup gap between N(0.5, 0.1) and U(0, 1) is ~0.286.
    double d = oneSampleKs(xs, [](double x) {
        return x <= 0.0 ? 0.0 : (x >= 1.0 ? 1.0 : x);
    });
    EXPECT_GT(d, 0.25);
}

TEST(OneSampleKs, DegenerateAgainstStep)
{
    // All data at 0.5 against the uniform CDF: sup gap is 0.5.
    std::vector<double> xs(10, 0.5);
    double d = oneSampleKs(xs, [](double x) {
        return x <= 0.0 ? 0.0 : (x >= 1.0 ? 1.0 : x);
    });
    EXPECT_DOUBLE_EQ(d, 0.5);
}

TEST(SortedKs, SortedOverloadAndReferenceAgreeWithBatch)
{
    Xoshiro256 gen(29);
    NormalSampler s1(0.0, 1.0), s2(0.3, 1.2);
    auto a = s1.sampleMany(gen, 211);
    auto b = s2.sampleMany(gen, 97);
    double batch = ksDistance(a, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(ksDistanceSorted(a, b), batch);
    EXPECT_EQ(sharp::simd::detail::ksSortedReferenceScalar(
                  a.data(), a.size(), b.data(), b.size()),
              batch);
    EXPECT_THROW(ksDistanceSorted({}, a), std::invalid_argument);
    EXPECT_THROW(ksDistanceSorted(a, {}), std::invalid_argument);
}

TEST(KsStatistic, NanPositionDoesNotChangeDistance)
{
    // A NaN cell (util::parseDouble accepts "nan") must not make the
    // distance depend on arrival order: every permutation sorts to the
    // same NaN-last run the sorted kernel documents.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, nan};
    std::vector<double> y = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    const double want = ksDistanceSorted(x, y); // x is NaN-last
    size_t permutations = 0;
    do {
        ASSERT_EQ(ksDistance(x, y), want)
            << "permutation " << permutations;
        ++permutations;
    } while (std::next_permutation(x.begin(), x.end(),
                                   sharp::simd::nanLess));
    EXPECT_EQ(permutations, 40320u);
}

} // anonymous namespace
