/**
 * @file
 * Runtime-dispatched SIMD kernels for the statistics hot path.
 *
 * The incremental engine (core::StatsCache) made the stopping-rule hot
 * path sub-linear in *work*; what remains is the per-element cost of
 * four kernels: the sorted-run merge behind the lazily-merged view,
 * the two-run order-statistic search, the half-split KS merge walk,
 * and the Kahan/moment accumulation loops. This module gives each of
 * those a function-pointer slot in a KernelTable and selects an
 * implementation once per process: a CPUID probe picks AVX2 when the
 * CPU has it and the scalar reference otherwise, and the
 * `SHARP_SIMD_BACKEND` environment variable overrides the probe
 * (unknown or unsupported names fail fast, with a did-you-mean hint).
 * The launcher records the dispatched backend as `repro_simd_backend`
 * in repro metadata so an artifact always names the code that ran.
 *
 * Exactness contract: every backend returns bit-for-bit the values of
 * the scalar reference on the same input, and backend-invariant work
 * counters (the currency of the bench gate):
 *
 *  - mergeSorted / ksSorted batch the two-pointer walks by consuming
 *    whole runs found with vector compares; elements are only moved
 *    and the evaluation points are provably the same, so bits cannot
 *    change. Inputs containing NaN fall back to the scalar reference
 *    (one vectorized prescan), keeping the NaN-last deterministic
 *    ordering contract of core::StatsCache.
 *  - orderStatTwoRuns is a comparison-count contract (its probes are
 *    counted by the bench gate), so every backend binds the same
 *    O(log) search; there is nothing for lanes to win there.
 *  - kahanSum is a loop-carried dependence chain by definition — the
 *    compensation term feeds the next add — so every backend binds the
 *    sequential reference; vectorizing it would change the reduction
 *    order and therefore the bits.
 *  - sumSquaredDeviations vectorizes the elementwise (v - m)^2 work
 *    but accumulates lane results in element order, which keeps the
 *    adds — and the bits — identical to the scalar loop. Every simd
 *    translation unit is compiled with -ffp-contract=off so no backend
 *    can fuse the multiply-add and round differently.
 *
 * The parity suite (tests/test_simd.cc, label `simd`) runs the AVX2
 * backend against scalar, and both against the reference KS walk, on
 * randomized and adversarial inputs; bench/stopping_hotpath times the
 * kernels per backend and gates AVX2 at >= 1.5x over scalar on the
 * merge and KS kernels at n = 1e5.
 */

#ifndef SHARP_SIMD_DISPATCH_HH
#define SHARP_SIMD_DISPATCH_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sharp
{
namespace simd
{

/**
 * Kernel implementations this build may carry. Values 1 and 3 named
 * the retired neon and avx512 tiers; the survivors keep theirs.
 */
enum class Backend
{
    Scalar = 0,
    Avx2 = 2,
};

/**
 * The NaN-aware strict weak ordering every sorted run in sharp uses:
 * exactly operator< on NaN-free data, NaNs one equivalence class at
 * the end otherwise, where raw operator< would hand std::sort
 * undefined behaviour.
 */
inline bool
nanLess(double a, double b)
{
    if (std::isnan(b))
        return !std::isnan(a);
    if (std::isnan(a))
        return false;
    return a < b;
}

/**
 * One function pointer per hot kernel. All pointers are non-null in
 * every table; backends without a vector win for a slot bind the
 * scalar reference.
 */
struct KernelTable
{
    /**
     * Merge two ascending runs (NaN-aware: NaNs order last, exactly
     * like core::StatsCache's comparator) into @p out, which must hold
     * na + nb doubles. Returns the number of comparator invocations
     * std::merge would have made, so callers can keep the
     * backend-invariant comparison counters exact.
     */
    uint64_t (*mergeSorted)(const double *a, size_t na, const double *b,
                            size_t nb, double *out);

    /**
     * Two-sample KS statistic over two ascending (nanLess-ordered)
     * runs; bit-identical to the reference walk
     * detail::ksSortedReferenceScalar (sizes past 2^31 take that walk
     * directly).
     */
    double (*ksSorted)(const double *a, size_t na, const double *b,
                       size_t nb);

    /**
     * The k-th smallest (0-based) of the union of two ascending runs;
     * requires k < na + nb and at least one element overall. Adds its
     * comparator invocations to @p comparisons.
     */
    double (*orderStatTwoRuns)(const double *a, size_t na,
                               const double *b, size_t nb, size_t k,
                               uint64_t *comparisons);

    /** Left-to-right Kahan-compensated sum (stats::mean's loop). */
    double (*kahanSum)(const double *v, size_t n);

    /**
     * Sum of squared deviations about @p m, accumulated in element
     * order (stats::variance's loop).
     */
    double (*sumSquaredDeviations)(const double *v, size_t n, double m);
};

/** Lowercase stable name: "scalar" or "avx2". */
const char *backendName(Backend backend);

/** Every backend name this build could ever accept, probe order. */
std::vector<std::string> knownBackendNames();

/**
 * Every name an artifact may record as `repro_simd_backend`: the
 * known names plus the retired "avx512" and "neon" tiers earlier
 * builds dispatched to. Artifacts naming them stay valid, because the
 * kernel contract made every backend's output bit-identical.
 */
std::vector<std::string> recordedBackendNames();

/**
 * Parse a backend name.
 * @throws std::invalid_argument for unknown names, with a
 *         did-you-mean hint when the name is plausibly a typo, and for
 *         retired names, naming the runnable backends.
 */
Backend parseBackendName(const std::string &name);

/** Backends whose kernels were compiled into this binary. */
std::vector<Backend> compiledBackends();

/** True when @p backend's kernels exist in this binary. */
bool backendCompiled(Backend backend);

/** True when the running CPU can execute @p backend's kernels. */
bool backendSupported(Backend backend);

/** Compiled and supported: selectable here and now. */
bool backendRunnable(Backend backend);

/**
 * The backend @p request selects: null/empty picks the best runnable
 * backend (AVX2, else scalar); otherwise the named backend,
 * validated.
 * @throws std::invalid_argument for unknown names (did-you-mean hint)
 *         and for backends this build or CPU cannot run.
 */
Backend resolveBackend(const char *request);

/**
 * The process-wide dispatched backend. First use resolves
 * SHARP_SIMD_BACKEND from the environment via resolveBackend().
 */
Backend activeBackend();

/** backendName(activeBackend()), for banners and provenance. */
const char *activeBackendName();

/**
 * Force the dispatched backend (tests and the bench harness; not
 * thread-safe against concurrent kernel callers).
 * @throws std::invalid_argument when @p backend is not runnable.
 */
void setActiveBackend(Backend backend);

/** The active backend's kernels — the hot-path entry point. */
const KernelTable &kernels();

/**
 * A specific backend's kernels (the parity suite and the per-backend
 * bench loop). @throws std::invalid_argument when not compiled in.
 */
const KernelTable &kernelTable(Backend backend);

} // namespace simd
} // namespace sharp

#endif // SHARP_SIMD_DISPATCH_HH
