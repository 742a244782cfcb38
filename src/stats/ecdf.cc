#include "stats/ecdf.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/dispatch.hh"

namespace sharp
{
namespace stats
{

Ecdf::Ecdf(std::vector<double> sample) : sorted(std::move(sample))
{
    if (sorted.empty())
        throw std::invalid_argument("Ecdf requires a non-empty sample");
    std::sort(sorted.begin(), sorted.end(), simd::nanLess);
}

double
Ecdf::operator()(double x) const
{
    auto it =
        std::upper_bound(sorted.begin(), sorted.end(), x, simd::nanLess);
    return static_cast<double>(it - sorted.begin()) /
           static_cast<double>(sorted.size());
}

double
Ecdf::inverse(double p) const
{
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("Ecdf::inverse requires p in [0, 1]");
    if (p == 0.0)
        return sorted.front();
    double idx = std::ceil(p * static_cast<double>(sorted.size())) - 1.0;
    size_t i = static_cast<size_t>(std::max(0.0, idx));
    return sorted[std::min(i, sorted.size() - 1)];
}

double
ksStatisticAgainstSorted(const std::vector<double> &sorted,
                         const std::function<double(double)> &cdf)
{
    if (sorted.empty())
        throw std::invalid_argument(
            "ksStatisticAgainstSorted requires a non-empty sample");
    size_t n = sorted.size();
    double nd = static_cast<double>(n);
    double sup = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double f = cdf(sorted[i]);
        double upper = static_cast<double>(i + 1) / nd - f;
        double lower = f - static_cast<double>(i) / nd;
        sup = std::max({sup, upper, lower});
    }
    return sup;
}

} // namespace stats
} // namespace sharp
