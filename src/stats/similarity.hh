/**
 * @file
 * Distribution similarity metrics (§V-A.3 of the paper).
 *
 * NAMD — Normalized Absolute Mean Difference — is the paper's
 * representative *point-summary* metric; the two-sample KS statistic is
 * the *distribution-based* alternative SHARP advocates. We also provide
 * Wasserstein-1, the overlap coefficient, and Jensen–Shannon divergence
 * as additional distribution-space measures.
 */

#ifndef SHARP_STATS_SIMILARITY_HH
#define SHARP_STATS_SIMILARITY_HH

#include <cstddef>
#include <vector>

namespace sharp
{
namespace stats
{

/**
 * Normalized Absolute Mean Difference, per the paper:
 *
 *   NAMD = 1/2 * ( (1/X̄) Σ|X_i − Y_i| + (1/Ȳ) Σ|X_i − Y_i| ) / n
 *
 * The paper's formula omits the 1/n factor in print, but without it the
 * metric grows with sample size, contradicting its use of "NAMD = 0"
 * thresholds across different-sized runs; we therefore use the mean
 * absolute difference, normalized by each sample's mean, averaged.
 *
 * Assumes (like the paper) equal-length samples; pairs are matched by
 * sorted order so the metric is permutation-invariant, and when lengths
 * differ the longer sample is subsampled by quantile matching.
 *
 * @throws std::invalid_argument if either sample is empty or either
 *         mean is zero.
 */
double namd(const std::vector<double> &x, const std::vector<double> &y);

/** NAMD over already-sorted samples (ascending); no copies made. */
double namdSorted(const std::vector<double> &sx,
                  const std::vector<double> &sy);

/**
 * Two-sample Kolmogorov–Smirnov distance sup_x |F1(x) - F2(x)| in
 * [0, 1]: the paper's distribution similarity metric and the basis of
 * the KS stopping rule. Copies and sorts both samples (NaNs last, so
 * the result never depends on input order) and walks them with
 * ksDistanceSorted.
 *
 * @throws std::invalid_argument if either sample is empty.
 */
double ksDistance(const std::vector<double> &x,
                  const std::vector<double> &y);

/**
 * KS distance over already-sorted samples (ascending, NaNs last as
 * simd::nanLess orders them) — the one entry point to the dispatched
 * sorted two-sample kernel, exact at ties and bit-identical on every
 * SIMD backend.
 *
 * @throws std::invalid_argument if either sample is empty.
 */
double ksDistanceSorted(const std::vector<double> &sx,
                        const std::vector<double> &sy);

/**
 * 1-Wasserstein (earth-mover) distance between empirical distributions,
 * computed as the L1 distance between quantile functions.
 */
double wasserstein1(const std::vector<double> &x,
                    const std::vector<double> &y);

/** Wasserstein-1 over already-sorted samples (ascending). */
double wasserstein1Sorted(const std::vector<double> &sx,
                          const std::vector<double> &sy);

/**
 * Overlap coefficient of the two KDE-smoothed densities, in [0, 1]
 * (1 = identical). Computed on a shared grid.
 */
double overlapCoefficient(const std::vector<double> &x,
                          const std::vector<double> &y);

/**
 * Jensen–Shannon divergence (natural log) between histogram
 * discretizations of the samples over a common range, in [0, ln 2].
 */
double jensenShannonDivergence(const std::vector<double> &x,
                               const std::vector<double> &y,
                               size_t bins = 64);

/**
 * A bundle of all similarity metrics between two samples, as logged by
 * the Reporter for each pairwise comparison.
 */
struct SimilarityReport
{
    double namd;
    double ks;
    double wasserstein;
    double overlap;
    double jensenShannon;

    static SimilarityReport compute(const std::vector<double> &x,
                                    const std::vector<double> &y);
};

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_SIMILARITY_HH
