#include "stats/tests.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/descriptive.hh"
#include "stats/similarity.hh"
#include "stats/special.hh"

namespace sharp
{
namespace stats
{

TestResult
ksTest(const std::vector<double> &x, const std::vector<double> &y)
{
    double d = ksDistance(x, y);
    double nx = static_cast<double>(x.size());
    double ny = static_cast<double>(y.size());
    double ne = nx * ny / (nx + ny);
    double lambda = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
    return {d, kolmogorovComplementaryCdf(lambda)};
}

TestResult
mannWhitneyU(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument("mannWhitneyU requires non-empty "
                                    "samples");
    size_t nx = x.size(), ny = y.size();
    struct Tagged
    {
        double value;
        bool fromX;
    };
    std::vector<Tagged> pooled;
    pooled.reserve(nx + ny);
    for (double v : x)
        pooled.push_back({v, true});
    for (double v : y)
        pooled.push_back({v, false});
    std::sort(pooled.begin(), pooled.end(),
              [](const Tagged &a, const Tagged &b) {
                  return a.value < b.value;
              });

    // Midranks with tie groups; accumulate tie correction term.
    double rank_sum_x = 0.0;
    double tie_term = 0.0;
    size_t i = 0;
    while (i < pooled.size()) {
        size_t j = i;
        while (j + 1 < pooled.size() &&
               pooled[j + 1].value == pooled[i].value) {
            ++j;
        }
        double midrank =
            (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
        double t = static_cast<double>(j - i + 1);
        if (t > 1.0)
            tie_term += t * t * t - t;
        for (size_t k = i; k <= j; ++k) {
            if (pooled[k].fromX)
                rank_sum_x += midrank;
        }
        i = j + 1;
    }

    double nxd = static_cast<double>(nx);
    double nyd = static_cast<double>(ny);
    double u_x = rank_sum_x - nxd * (nxd + 1.0) / 2.0;
    double mu = nxd * nyd / 2.0;
    double n_total = nxd + nyd;
    double sigma2 = nxd * nyd / 12.0 *
                    ((n_total + 1.0) -
                     tie_term / (n_total * (n_total - 1.0)));
    if (sigma2 <= 0.0)
        return {u_x, 1.0}; // all values tied: no evidence of difference
    double z = (u_x - mu);
    // Continuity correction toward the mean.
    if (z > 0.5)
        z -= 0.5;
    else if (z < -0.5)
        z += 0.5;
    else
        z = 0.0;
    z /= std::sqrt(sigma2);
    double p = 2.0 * (1.0 - normalCdf(std::fabs(z)));
    return {u_x, std::min(1.0, p)};
}

TestResult
welchTTest(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() < 2 || y.size() < 2)
        throw std::invalid_argument("welchTTest requires n >= 2 per sample");
    double mx = mean(x), my = mean(y);
    double vx = variance(x), vy = variance(y);
    double nx = static_cast<double>(x.size());
    double ny = static_cast<double>(y.size());
    double se2 = vx / nx + vy / ny;
    if (se2 <= 0.0) {
        // Zero variance in both samples: distributions are constants.
        return {mx == my ? 0.0 : std::numeric_limits<double>::infinity(),
                mx == my ? 1.0 : 0.0};
    }
    double t = (mx - my) / std::sqrt(se2);
    double dof = se2 * se2 /
                 (vx * vx / (nx * nx * (nx - 1.0)) +
                  vy * vy / (ny * ny * (ny - 1.0)));
    double p = 2.0 * (1.0 - studentTCdf(std::fabs(t), dof));
    return {t, std::clamp(p, 0.0, 1.0)};
}

TestResult
jarqueBera(const std::vector<double> &x)
{
    if (x.size() < 4)
        throw std::invalid_argument("jarqueBera requires n >= 4");
    double n = static_cast<double>(x.size());
    // JB uses the population (g1, g2) moments, not the bias-adjusted ones.
    double m = mean(x);
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (double v : x) {
        double d = v - m;
        double d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    if (m2 <= 0.0)
        return {0.0, 1.0};
    double s = m3 / std::pow(m2, 1.5);
    double k = m4 / (m2 * m2) - 3.0;
    double jb = n / 6.0 * (s * s + k * k / 4.0);
    double p = 1.0 - chiSquareCdf(jb, 2.0);
    return {jb, std::clamp(p, 0.0, 1.0)};
}

TestResult
andersonDarlingNormal(const std::vector<double> &x)
{
    if (x.size() < 8)
        throw std::invalid_argument("andersonDarlingNormal requires n >= 8");
    double n = static_cast<double>(x.size());
    double m = mean(x);
    double sd = stddev(x);
    if (sd <= 0.0)
        return {0.0, 1.0}; // constant sample: vacuously "normal"

    std::vector<double> z;
    z.reserve(x.size());
    for (double v : x)
        z.push_back((v - m) / sd);
    std::sort(z.begin(), z.end());

    double a2 = 0.0;
    size_t count = z.size();
    for (size_t i = 0; i < count; ++i) {
        double phi_i = std::clamp(normalCdf(z[i]), 1e-15, 1.0 - 1e-15);
        double phi_rev =
            std::clamp(normalCdf(z[count - 1 - i]), 1e-15, 1.0 - 1e-15);
        a2 += (2.0 * static_cast<double>(i) + 1.0) *
              (std::log(phi_i) + std::log(1.0 - phi_rev));
    }
    a2 = -n - a2 / n;

    // Small-sample adjustment (case: mu and sigma estimated).
    double a2_star = a2 * (1.0 + 0.75 / n + 2.25 / (n * n));

    // D'Agostino & Stephens p-value approximation.
    double p;
    if (a2_star >= 0.6)
        p = std::exp(1.2937 - 5.709 * a2_star + 0.0186 * a2_star * a2_star);
    else if (a2_star >= 0.34)
        p = std::exp(0.9177 - 4.279 * a2_star - 1.38 * a2_star * a2_star);
    else if (a2_star >= 0.2)
        p = 1.0 - std::exp(-8.318 + 42.796 * a2_star -
                           59.938 * a2_star * a2_star);
    else
        p = 1.0 - std::exp(-13.436 + 101.14 * a2_star -
                           223.73 * a2_star * a2_star);
    return {a2_star, std::clamp(p, 0.0, 1.0)};
}

namespace
{

/**
 * Modified Bessel function K_{1/4}(z) by numerical quadrature of
 * K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt. Accurate to
 * ~1e-8 for the z range the CvM tail series needs.
 */
double
besselK14(double z)
{
    // Integrand is negligible once z*cosh(t) exceeds ~745.
    double t_max = std::acosh(std::max(2.0, 745.0 / z));
    const int steps = 4000; // Simpson resolution
    double h = t_max / steps;
    auto f = [z](double t) {
        return std::exp(-z * std::cosh(t)) * std::cosh(t / 4.0);
    };
    double sum = f(0.0) + f(t_max);
    for (int i = 1; i < steps; ++i) {
        double t = h * static_cast<double>(i);
        sum += f(t) * (i % 2 == 1 ? 4.0 : 2.0);
    }
    return sum * h / 3.0;
}

/**
 * CDF of the limiting Cramér–von Mises distribution W^2
 * (Csörgő & Faraway 1996, eq. 1.3).
 */
double
cvmLimitCdf(double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x > 10.0)
        return 1.0;
    double total = 0.0;
    for (int k = 0; k < 12; ++k) {
        double kd = static_cast<double>(k);
        // Gamma(k + 1/2) / (Gamma(1/2) k!)
        double log_coef = logGamma(kd + 0.5) - logGamma(0.5) -
                          logGamma(kd + 1.0);
        double four_k1 = 4.0 * kd + 1.0;
        double z = four_k1 * four_k1 / (16.0 * x);
        double term = std::exp(log_coef - z) * std::sqrt(four_k1) *
                      besselK14(z);
        total += term;
        if (term < 1e-14 * std::max(total, 1e-300))
            break;
    }
    double cdf = total / (M_PI * std::sqrt(x));
    return std::clamp(cdf, 0.0, 1.0);
}

} // anonymous namespace

TestResult
cramerVonMises(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.empty() || y.empty())
        throw std::invalid_argument(
            "cramerVonMises requires non-empty samples");

    size_t n = x.size(), m = y.size();
    struct Tagged
    {
        double value;
        bool fromX;
    };
    std::vector<Tagged> pooled;
    pooled.reserve(n + m);
    for (double v : x)
        pooled.push_back({v, true});
    for (double v : y)
        pooled.push_back({v, false});
    std::sort(pooled.begin(), pooled.end(),
              [](const Tagged &a, const Tagged &b) {
                  return a.value < b.value;
              });

    // Midranks of each sample in the pooled ordering.
    std::vector<double> rank_x, rank_y;
    rank_x.reserve(n);
    rank_y.reserve(m);
    size_t i = 0;
    while (i < pooled.size()) {
        size_t j = i;
        while (j + 1 < pooled.size() &&
               pooled[j + 1].value == pooled[i].value) {
            ++j;
        }
        double midrank =
            (static_cast<double>(i + 1) + static_cast<double>(j + 1)) /
            2.0;
        for (size_t k = i; k <= j; ++k) {
            if (pooled[k].fromX)
                rank_x.push_back(midrank);
            else
                rank_y.push_back(midrank);
        }
        i = j + 1;
    }

    double nd = static_cast<double>(n), md = static_cast<double>(m);
    double u = 0.0;
    for (size_t k = 0; k < n; ++k) {
        double d = rank_x[k] - static_cast<double>(k + 1);
        u += nd * d * d;
    }
    for (size_t k = 0; k < m; ++k) {
        double d = rank_y[k] - static_cast<double>(k + 1);
        u += md * d * d;
    }
    double total = nd + md;
    double t = u / (nd * md * total) -
               (4.0 * nd * md - 1.0) / (6.0 * total);
    double p = 1.0 - cvmLimitCdf(t);
    return {t, std::clamp(p, 0.0, 1.0)};
}

size_t
requiredSampleSize(const std::vector<double> &pilot, double relWidth,
                   double level)
{
    if (pilot.size() < 2)
        throw std::invalid_argument(
            "requiredSampleSize needs a pilot with >= 2 samples");
    if (!(relWidth > 0.0))
        throw std::invalid_argument(
            "requiredSampleSize needs relWidth > 0");
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument(
            "requiredSampleSize needs level in (0, 1)");

    double m = mean(pilot);
    if (m == 0.0)
        throw std::invalid_argument(
            "requiredSampleSize needs a nonzero pilot mean");
    double cv = stddev(pilot) / std::fabs(m);
    if (cv == 0.0)
        return 2; // constant data: any two runs suffice

    // n = (2 t cv / w)^2 with t depending on n: fixed-point iterate
    // from the normal approximation.
    double quantile_p = 0.5 + level / 2.0;
    double n_est = std::pow(
        2.0 * normalQuantile(quantile_p) * cv / relWidth, 2.0);
    for (int iter = 0; iter < 4; ++iter) {
        double dof = std::max(1.0, n_est - 1.0);
        double t = studentTQuantile(quantile_p, dof);
        n_est = std::pow(2.0 * t * cv / relWidth, 2.0);
        n_est = std::min(n_est, 1e9);
    }
    return static_cast<size_t>(std::max(2.0, std::ceil(n_est)));
}

} // namespace stats
} // namespace sharp
