/**
 * @file
 * Empirical cumulative distribution function — the central artifact of
 * SHARP's distribution-based comparisons: the KS distance
 * (stats::ksDistance) is a supremum distance between two of these.
 */

#ifndef SHARP_STATS_ECDF_HH
#define SHARP_STATS_ECDF_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace sharp
{
namespace stats
{

/**
 * Right-continuous ECDF over a sample: F(x) = #{x_i <= x} / n.
 */
class Ecdf
{
  public:
    /**
     * Build from a sample (copied and sorted, NaNs last). Must be
     * non-empty.
     */
    explicit Ecdf(std::vector<double> sample);

    /** Evaluate F(x). */
    double operator()(double x) const;

    /** Inverse ECDF: smallest sample value with F(value) >= p. */
    double inverse(double p) const;

    /** Number of underlying observations. */
    size_t size() const { return sorted.size(); }

    /** The sorted sample (ascending). */
    const std::vector<double> &sortedSample() const { return sorted; }

  private:
    std::vector<double> sorted;
};

/**
 * One-sample Kolmogorov–Smirnov statistic against a theoretical CDF,
 * sup_x |F_n(x) - F(x)|, over an already-sorted sample (ascending).
 * Used by the distribution classifier to score candidate parametric
 * fits. @p cdf must be non-decreasing into [0, 1]. The two-sample
 * distance is stats::ksDistance (similarity.hh).
 */
double ksStatisticAgainstSorted(const std::vector<double> &sorted,
                                const std::function<double(double)> &cdf);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_ECDF_HH
