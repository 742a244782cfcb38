/**
 * @file
 * Perf-regression bench for the stopping-rule hot path.
 *
 * Measures the steady-state cost of one stopping-rule evaluation —
 * append one sample, consult the rule — at series sizes 10^2..10^5,
 * once with the incremental statistics engine (core::StatsCache) and
 * once with it disabled via the kill switch, which recomputes every
 * statistic batch-style exactly as the pre-engine code did. Both modes
 * draw identical sample streams, so every decision (criterion,
 * threshold, stop flag, reason) must agree bit for bit; the bench
 * asserts this and exits non-zero on any divergence.
 *
 * Also times a full `sharp calibrate` sweep in both modes, since the
 * calibration harness is the engine's heaviest consumer.
 *
 * Small series sit below the engine's size cutover
 * (core::statsCacheCutover()), where every accessor routes to the
 * batch recomputation anyway — so at those sizes the two modes run
 * identical code and the honest claim is "no overhead", not a speedup.
 * The bench asserts exactly that: at sizes that stay under the cutover
 * the work counters must be *equal* and the wall ratio near 1. Small-n
 * points are also timing-noise-dominated (tens of nanoseconds per
 * eval), so every point at n <= 1000 is measured over several
 * independent repetitions with fresh state, interleaving the two modes
 * and reporting each mode's fastest window.
 *
 * Output: a human-readable table on stdout plus BENCH_stopping.json
 * (see --out) with ns/eval, deterministic work counters (structure
 * comparisons and binomial PMF terms per eval), and speedups. CI runs
 * `stopping_hotpath --quick` as a smoke gate: the equivalence
 * assertions plus deterministic counter bounds showing the cached fast
 * paths do sub-linear structural work per eval, and the counter
 * equality at sub-cutover sizes.
 *
 * A second section micro-benches the SIMD kernels (KS half-split walk
 * and sorted merge) on every backend the host can run, against the
 * scalar reference. The dispatch layer's contract is bit-exactness, so
 * each backend's outputs are compared bit for bit; the reason vector
 * code exists at all is speed, so on vector-capable hosts the KS and
 * merge kernels must beat scalar by >= 1.5x at n = 10^5. The JSON
 * names the backend the dispatcher actually selected for this process
 * (`simd_backend`) plus every runnable backend's timing.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "calibrate/calibration.hh"
#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/stopping_rule.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "rng/synthetic.hh"
#include "rng/xoshiro.hh"
#include "simd/dispatch.hh"

#include <algorithm>

namespace
{

using sharp::core::SampleSeries;
using sharp::core::StatsEngineCounters;
using sharp::core::StopDecision;

/** Which synthetic stream each rule is exercised on. */
struct RuleCase
{
    const char *rule;
    const char *stream;
};

/**
 * Every registered rule, on a stream its criterion is meaningful for.
 * The meta rule gets the heavy-tail stream: its hot path there is the
 * classifier plus the median-CI delegate, the two costliest cached
 * consumers.
 */
const RuleCase ruleCases[] = {
    {"fixed", "lognormal"},        {"constant", "constant"},
    {"ci", "lognormal"},           {"normal-ci", "normal"},
    {"geomean-ci", "lognormal"},   {"median-ci", "lognormal"},
    {"ks", "lognormal"},           {"uniform-range", "uniform"},
    {"autocorr-ess", "sinusoidal"}, {"modality", "bimodal"},
    {"tail-quantile", "lognormal"}, {"meta", "cauchy"},
};

/** One mode's measurement at one series size. */
struct Measurement
{
    double nsPerEval = 0.0;
    double comparisonsPerEval = 0.0;
    double pmfEvalsPerEval = 0.0;
    /** Raw totals across all repetitions, for exact-equality gates. */
    uint64_t totalComparisons = 0;
    uint64_t totalPmfEvals = 0;
    std::vector<StopDecision> decisions;
};

uint64_t
caseSeed(const std::string &rule, size_t n)
{
    // Fixed per (rule, n) so the cached and batch runs replay the
    // exact same stream; any constant works.
    uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    for (unsigned char c : rule)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** Accumulates one mode's measurements across repetitions. */
struct Accumulator
{
    /**
     * Fastest timed window. Scheduler and clock-drift noise is
     * strictly additive, so the minimum across repetitions converges
     * on the true cost where a sum or mean stays contaminated —
     * exactly what the cheap rules (sub-microsecond windows) need.
     */
    double minNs = 0.0;
    Measurement m;
};

/**
 * One timed window: build the series to @p n samples, do one untimed
 * warm-up evaluation (establishing the rule's internal state and, in
 * cached mode, the engine's structures), then time @p evals rounds of
 * append-plus-evaluate.
 */
void
runWindow(const std::string &rule_name, const std::string &stream,
          uint64_t seed, size_t n, size_t evals, bool cached,
          Accumulator &into)
{
    sharp::core::setStatsCacheEnabled(cached);

    auto rule = sharp::core::StoppingRuleFactory::instance().make(rule_name);
    auto sampler = sharp::rng::syntheticByName(stream).make();
    sharp::rng::Xoshiro256 gen(seed);

    SampleSeries series;
    for (size_t i = 0; i < n; ++i)
        series.append(sampler->sample(gen));

    into.m.decisions.push_back(rule->evaluate(series));

    StatsEngineCounters before = series.stats().counters();
    auto start = std::chrono::steady_clock::now();
    for (size_t e = 0; e < evals; ++e) {
        series.append(sampler->sample(gen));
        into.m.decisions.push_back(rule->evaluate(series));
    }
    auto stop = std::chrono::steady_clock::now();
    StatsEngineCounters delta = series.stats().counters() - before;

    double window_ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    if (into.minNs == 0.0 || window_ns < into.minNs)
        into.minNs = window_ns;
    into.m.totalComparisons += delta.comparisons;
    into.m.totalPmfEvals += delta.pmfEvals;

    sharp::core::setStatsCacheEnabled(true);
}

/**
 * Paired measurement of both modes at one (rule, size) point. The two
 * modes run interleaved, repetition by repetition on the same seed,
 * with the mode order swapped every other repetition — so clock-speed
 * drift and cache warmth land on both sides equally instead of biasing
 * whichever mode ran second. Small per-eval costs (tens of ns) need
 * the repetitions; big sizes are self-averaging and use one.
 */
std::pair<Measurement, Measurement>
measurePoint(const std::string &rule_name, const std::string &stream,
             size_t n, size_t evals, size_t repeats)
{
    Accumulator incr, batch;
    incr.m.decisions.reserve(repeats * (evals + 1));
    batch.m.decisions.reserve(repeats * (evals + 1));

    for (size_t rep = 0; rep < repeats; ++rep) {
        uint64_t seed = caseSeed(rule_name, n) ^
                        (0xd1342543de82ef95ull * (rep + 1));
        if (rep % 2 == 0) {
            runWindow(rule_name, stream, seed, n, evals, true, incr);
            runWindow(rule_name, stream, seed, n, evals, false, batch);
        } else {
            runWindow(rule_name, stream, seed, n, evals, false, batch);
            runWindow(rule_name, stream, seed, n, evals, true, incr);
        }
    }

    double ne = static_cast<double>(evals * repeats);
    for (Accumulator *acc : {&incr, &batch}) {
        acc->m.nsPerEval = acc->minNs / static_cast<double>(evals);
        acc->m.comparisonsPerEval =
            static_cast<double>(acc->m.totalComparisons) / ne;
        acc->m.pmfEvalsPerEval =
            static_cast<double>(acc->m.totalPmfEvals) / ne;
    }
    return {std::move(incr.m), std::move(batch.m)};
}

/** Bitwise equality of doubles (so NaN == NaN and -0.0 != 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameDecisions(const std::vector<StopDecision> &a,
              const std::vector<StopDecision> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].stop != b[i].stop ||
            !sameBits(a[i].criterion, b[i].criterion) ||
            !sameBits(a[i].threshold, b[i].threshold) ||
            a[i].reason != b[i].reason)
            return false;
    }
    return true;
}

/** A sorted, NaN-free lognormal series for the kernel micro-bench. */
std::vector<double>
makeSortedSeries(size_t n, uint64_t seed)
{
    auto sampler = sharp::rng::syntheticByName("lognormal").make();
    sharp::rng::Xoshiro256 gen(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = sampler->sample(gen);
    std::sort(v.begin(), v.end());
    return v;
}

/** Fastest of @p windows timed runs of @p fn, in nanoseconds. */
template <typename Fn>
double
minWallNs(size_t windows, Fn &&fn)
{
    double best = 0.0;
    for (size_t w = 0; w < windows; ++w) {
        auto start = std::chrono::steady_clock::now();
        fn();
        auto stop = std::chrono::steady_clock::now();
        double ns =
            std::chrono::duration<double, std::nano>(stop - start)
                .count();
        if (best == 0.0 || ns < best)
            best = ns;
    }
    return best;
}

double
calibrationWallSeconds(bool cached, bool quick)
{
    sharp::core::setStatsCacheEnabled(cached);
    sharp::calibrate::CalibrationConfig config;
    config.jobs = 4;
    if (quick) {
        config.seedsPerCell = 2;
        config.maxSamples = 400;
        config.truthSamples = 4096;
    }
    auto start = std::chrono::steady_clock::now();
    sharp::calibrate::runCalibration(config);
    auto stop = std::chrono::steady_clock::now();
    sharp::core::setStatsCacheEnabled(true);
    return std::chrono::duration<double>(stop - start).count();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_stopping.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: stopping_hotpath [--quick] [--out FILE]\n");
            return 2;
        }
    }

    bench::banner("BENCH stopping",
                  quick ? "stopping-rule hot path (quick smoke gate)"
                        : "stopping-rule hot path, incremental vs batch");

    std::vector<size_t> sizes = {100, 1000, 10000};
    if (!quick)
        sizes.push_back(100000);

    sharp::json::Value doc = sharp::json::Value::makeObject();
    doc.set("schema", "sharp-bench-stopping-v1");
    doc.set("mode", quick ? "quick" : "full");
    doc.set("cutover", sharp::core::statsCacheCutover());
    sharp::json::Value size_arr = sharp::json::Value::makeArray();
    for (size_t n : sizes)
        size_arr.append(n);
    doc.set("sizes", size_arr);

    bool all_equivalent = true;
    bool gates_pass = true;
    sharp::json::Value rules_json = sharp::json::Value::makeArray();

    for (const RuleCase &rc : ruleCases) {
        bench::section(std::string(rc.rule) + " on " + rc.stream);
        std::printf("%10s %14s %14s %9s %16s %14s\n", "n", "incr ns/eval",
                    "batch ns/eval", "speedup", "incr cmp/eval",
                    "incr pmf/eval");

        sharp::json::Value rule_json = sharp::json::Value::makeObject();
        rule_json.set("rule", rc.rule);
        rule_json.set("stream", rc.stream);
        sharp::json::Value points = sharp::json::Value::makeArray();

        for (size_t n : sizes) {
            // Fewer timed rounds at the largest size: the batch mode's
            // per-eval cost is linear-plus, and the KDE-based rules pay
            // an uncached O(n) density pass in both modes. Sizes up to
            // 10^4 instead get several repetitions and a min-of-8,
            // because a single window there is noise-dominated — at
            // n = 10^4 one repetition once reported a phantom 0.83x
            // "regression" that vanished under repetition.
            size_t evals = n >= 100000 ? 8 : 64;
            size_t repeats = n <= 10000 ? 8 : 1;
            auto [incr, batch] =
                measurePoint(rc.rule, rc.stream, n, evals, repeats);

            bool equivalent = sameDecisions(incr.decisions, batch.decisions);
            all_equivalent = all_equivalent && equivalent;

            double speedup = incr.nsPerEval > 0.0
                                 ? batch.nsPerEval / incr.nsPerEval
                                 : 0.0;
            std::printf("%10zu %14.0f %14.0f %8.1fx %16.0f %14.0f%s\n", n,
                        incr.nsPerEval, batch.nsPerEval, speedup,
                        incr.comparisonsPerEval, incr.pmfEvalsPerEval,
                        equivalent ? "" : "  DECISIONS DIVERGED");

            sharp::json::Value point = sharp::json::Value::makeObject();
            point.set("n", n);
            point.set("evals", evals);
            point.set("repeats", repeats);
            point.set("incremental_ns_per_eval", incr.nsPerEval);
            point.set("batch_ns_per_eval", batch.nsPerEval);
            point.set("speedup", speedup);
            point.set("incremental_comparisons_per_eval",
                      incr.comparisonsPerEval);
            point.set("batch_comparisons_per_eval",
                      batch.comparisonsPerEval);
            point.set("incremental_pmf_evals_per_eval",
                      incr.pmfEvalsPerEval);
            point.set("batch_pmf_evals_per_eval", batch.pmfEvalsPerEval);
            point.set("decisions_bitwise_equal", equivalent);
            points.append(std::move(point));

            // Deterministic sub-linearity gate on the cached fast
            // paths: per eval they must do a small fraction of the
            // batch mode's structural work (which re-sorts, so it is
            // at least n log n comparisons). The counters are exact
            // replay counts, not timings, so the bound is stable.
            // Sub-cutover gate: a series that never outgrows the size
            // cutover runs the identical batch code in both modes, so
            // the work counters must agree *exactly* and the wall
            // ratio can only differ by timing noise. This is the
            // regression guard for the small-n overhead the cutover
            // exists to remove.
            if (n + evals <= sharp::core::statsCacheCutover()) {
                if (incr.totalComparisons != batch.totalComparisons ||
                    incr.totalPmfEvals != batch.totalPmfEvals) {
                    std::printf(
                        "  GATE: sub-cutover counters differ "
                        "(cmp %llu vs %llu, pmf %llu vs %llu)\n",
                        static_cast<unsigned long long>(
                            incr.totalComparisons),
                        static_cast<unsigned long long>(
                            batch.totalComparisons),
                        static_cast<unsigned long long>(
                            incr.totalPmfEvals),
                        static_cast<unsigned long long>(
                            batch.totalPmfEvals));
                    gates_pass = false;
                }
                if (speedup < 0.7) {
                    std::printf("  GATE: sub-cutover speedup %.2fx "
                                "below 0.7 (modes should run "
                                "identical code)\n",
                                speedup);
                    gates_pass = false;
                }
            }

            bool counter_gated = std::string(rc.rule) == "ks" ||
                                 std::string(rc.rule) == "median-ci" ||
                                 std::string(rc.rule) == "meta";
            if (counter_gated && n >= 10000) {
                if (incr.comparisonsPerEval >
                    batch.comparisonsPerEval / 10.0) {
                    std::printf("  GATE: comparisons/eval %.0f not "
                                "sub-linear vs batch %.0f\n",
                                incr.comparisonsPerEval,
                                batch.comparisonsPerEval);
                    gates_pass = false;
                }
                if (batch.pmfEvalsPerEval > 0.0 &&
                    incr.pmfEvalsPerEval > batch.pmfEvalsPerEval / 5.0) {
                    std::printf("  GATE: pmf evals/eval %.0f not "
                                "sub-linear vs batch %.0f\n",
                                incr.pmfEvalsPerEval,
                                batch.pmfEvalsPerEval);
                    gates_pass = false;
                }
            }
        }
        rule_json.set("points", std::move(points));
        rules_json.append(std::move(rule_json));
    }
    doc.set("rules", std::move(rules_json));

    // ---- SIMD kernel micro-bench: every runnable backend vs scalar.
    namespace simd = sharp::simd;
    bench::section("SIMD kernels, per backend");
    doc.set("simd_backend", std::string(simd::activeBackendName()));

    std::vector<simd::Backend> runnable;
    sharp::json::Value runnable_json = sharp::json::Value::makeArray();
    for (simd::Backend b : simd::compiledBackends()) {
        if (!simd::backendRunnable(b))
            continue;
        runnable.push_back(b);
        runnable_json.append(std::string(simd::backendName(b)));
    }
    doc.set("simd_backends_runnable", std::move(runnable_json));

    const simd::KernelTable &scalar =
        simd::kernelTable(simd::Backend::Scalar);
    const size_t kernel_windows = 25;
    const std::vector<size_t> kernel_sizes = {10000, 100000};
    bool vector_runnable = runnable.front() != simd::Backend::Scalar;

    sharp::json::Value kernels_json = sharp::json::Value::makeArray();
    for (const char *kernel : {"ks", "merge"}) {
        std::printf("%-6s %10s %10s %14s %9s %8s\n", kernel, "n",
                    "backend", "ns/call", "speedup", "bits");
        sharp::json::Value kernel_json =
            sharp::json::Value::makeObject();
        kernel_json.set("kernel", kernel);
        sharp::json::Value kpoints = sharp::json::Value::makeArray();

        for (size_t n : kernel_sizes) {
            std::vector<double> a = makeSortedSeries(n, 0xabcd17 ^ n);
            std::vector<double> b2 = makeSortedSeries(n, 0x55aa33 ^ n);

            // Scalar reference outputs, computed once.
            std::vector<double> ref_merge(2 * n), out_merge(2 * n);
            uint64_t ref_cmp = scalar.mergeSorted(
                a.data(), n, b2.data(), n, ref_merge.data());
            double ref_ks =
                scalar.ksSorted(a.data(), n, b2.data(), n);

            sharp::json::Value point = sharp::json::Value::makeObject();
            point.set("n", n);
            sharp::json::Value backends_json =
                sharp::json::Value::makeArray();

            // Scalar is timed first so every backend row can report
            // its speedup, even though scalar sits last in probe
            // order.
            double scalar_ns =
                std::strcmp(kernel, "merge") == 0
                    ? minWallNs(kernel_windows,
                                [&] {
                                    scalar.mergeSorted(
                                        a.data(), n, b2.data(), n,
                                        out_merge.data());
                                })
                    : minWallNs(kernel_windows, [&] {
                          volatile double sink = scalar.ksSorted(
                              a.data(), n, b2.data(), n);
                          (void)sink;
                      });

            for (simd::Backend b : runnable) {
                const simd::KernelTable &table = simd::kernelTable(b);
                bool bits_equal = true;
                double ns = 0.0;
                if (std::strcmp(kernel, "merge") == 0) {
                    uint64_t cmp = table.mergeSorted(
                        a.data(), n, b2.data(), n, out_merge.data());
                    bits_equal =
                        cmp == ref_cmp &&
                        std::memcmp(out_merge.data(), ref_merge.data(),
                                    2 * n * sizeof(double)) == 0;
                    ns = b == simd::Backend::Scalar
                             ? scalar_ns
                             : minWallNs(kernel_windows, [&] {
                                   table.mergeSorted(a.data(), n,
                                                     b2.data(), n,
                                                     out_merge.data());
                               });
                } else {
                    double d =
                        table.ksSorted(a.data(), n, b2.data(), n);
                    bits_equal = sameBits(d, ref_ks);
                    ns = b == simd::Backend::Scalar
                             ? scalar_ns
                             : minWallNs(kernel_windows, [&] {
                                   volatile double sink = table.ksSorted(
                                       a.data(), n, b2.data(), n);
                                   (void)sink;
                               });
                }
                double speedup =
                    ns > 0.0 && scalar_ns > 0.0 ? scalar_ns / ns : 0.0;
                all_equivalent = all_equivalent && bits_equal;

                std::printf("%-6s %10zu %10s %14.0f %8.2fx %8s%s\n", "",
                            n, simd::backendName(b), ns, speedup,
                            bits_equal ? "equal" : "DIFFER",
                            bits_equal ? "" : "  BITS DIVERGED");

                sharp::json::Value bj = sharp::json::Value::makeObject();
                bj.set("backend", std::string(simd::backendName(b)));
                bj.set("ns_per_call", ns);
                bj.set("speedup_vs_scalar", speedup);
                bj.set("bitwise_equal", bits_equal);
                backends_json.append(std::move(bj));

                // The point of the vector kernels: on a vector-capable
                // host the dispatched best backend must clearly beat
                // scalar at the size where vectorization pays. min-of-
                // windows timings make this stable enough to gate on.
                if (vector_runnable && b == runnable.front() &&
                    n == 100000 && speedup < 1.5) {
                    std::printf("  GATE: %s backend %.2fx over scalar "
                                "on %s at n=100000, below 1.5x\n",
                                simd::backendName(b), speedup, kernel);
                    gates_pass = false;
                }
            }
            point.set("backends", std::move(backends_json));
            kpoints.append(std::move(point));
        }
        kernel_json.set("points", std::move(kpoints));
        kernels_json.append(std::move(kernel_json));
    }
    doc.set("simd_kernels", std::move(kernels_json));

    bench::section("sharp calibrate wall time");
    double cal_incr = calibrationWallSeconds(true, quick);
    double cal_batch = calibrationWallSeconds(false, quick);
    std::printf("incremental %.2fs   batch %.2fs   speedup %.1fx\n",
                cal_incr, cal_batch,
                cal_incr > 0.0 ? cal_batch / cal_incr : 0.0);
    sharp::json::Value cal = sharp::json::Value::makeObject();
    cal.set("incremental_wall_seconds", cal_incr);
    cal.set("batch_wall_seconds", cal_batch);
    cal.set("speedup", cal_incr > 0.0 ? cal_batch / cal_incr : 0.0);
    doc.set("calibration", std::move(cal));

    doc.set("decisions_bitwise_equal", all_equivalent);
    sharp::json::writeFile(doc, out);
    std::printf("\nwrote %s\n", out.c_str());

    if (!all_equivalent) {
        std::fprintf(stderr,
                     "FAIL: a bit-exactness contract broke (incremental "
                     "vs batch decisions, or a SIMD backend vs "
                     "scalar)\n");
        return 1;
    }
    if (!gates_pass) {
        std::fprintf(stderr,
                     "FAIL: a gate tripped (work-counter sub-linearity "
                     "above the cutover, batch-equivalence below it, or "
                     "SIMD kernel speedup under 1.5x)\n");
        return 1;
    }
    std::printf("incremental == batch bit-for-bit across %zu rules x %zu "
                "sizes\n",
                sizeof(ruleCases) / sizeof(ruleCases[0]), sizes.size());
    return 0;
}
