/**
 * @file
 * 256-bit bitonic merge of two sorted double arrays, included by the
 * AVX2 translation unit; everything here is `static inline`.
 *
 * The run-batched merge dies on random interleavings — the average
 * run is one or two elements, so per-run overhead eats the lane win.
 * This is the classic in-register merge network instead: keep the 4
 * largest loaded elements in a register, load 4 more from whichever
 * array's head is smaller, bitonic-merge the 8, emit the low 4. Every
 * iteration emits 4 elements for ~10 vector ops, independent of run
 * structure.
 *
 * Bit-exactness: with no NaNs and no -0.0, double sort order is a
 * total order on bit patterns — equal values are bit-identical — so
 * *any* correct merge emits the same bytes as the scalar reference
 * and the tie discipline is unobservable. (-0.0 == +0.0 breaks that
 * injectivity and _mm256_min_pd picks by operand order, so a prescan
 * routes inputs containing NaNs or negative zeros to the scalar
 * kernel.) The comparison count the scalar loop would have tallied is
 * recovered arithmetically: it is na + #(b < a.back()) when a
 * exhausts first (ties feed from a) and nb + #(a <= b.back())
 * otherwise — two binary searches instead of a counter.
 */

#ifndef SHARP_SIMD_MERGE256_HH
#define SHARP_SIMD_MERGE256_HH

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/kernels.hh"

namespace sharp
{
namespace simd
{
namespace detail
{

/** Fast-path precondition: no NaN, no -0.0 anywhere in @p p. */
static inline bool
mergeFastpathOk256(const double *p, size_t n)
{
    const __m256d zero = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d v = _mm256_loadu_pd(p + i);
        int nan_mask = _mm256_movemask_pd(
            _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
        int negzero_mask =
            _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_EQ_OQ)) &
            _mm256_movemask_pd(v);
        if ((nan_mask | negzero_mask) != 0)
            return false;
    }
    for (; i < n; ++i) {
        if (p[i] != p[i])
            return false;
        if (p[i] == 0.0 && std::signbit(p[i]))
            return false;
    }
    return true;
}

/** What the scalar merge loop's comparison counter would have read. */
static inline uint64_t
mergeCount256(const double *a, size_t na, const double *b, size_t nb)
{
    if (!(b[nb - 1] < a[na - 1])) {
        // a exhausts first: its last element is emitted once b's head
        // is >= it; every strictly smaller b went out before.
        return na + static_cast<uint64_t>(
                        std::lower_bound(b, b + nb, a[na - 1]) - b);
    }
    // b exhausts first: every a element <= b's last goes out before it.
    return nb + static_cast<uint64_t>(
                    std::upper_bound(a, a + na, b[nb - 1]) - a);
}

/** Sort a 4-element bitonic sequence ascending. */
static inline __m256d
bitonicSort4(__m256d v)
{
    __m256d p = _mm256_permute4x64_pd(v, _MM_SHUFFLE(1, 0, 3, 2));
    __m256d mn = _mm256_min_pd(v, p);
    __m256d mx = _mm256_max_pd(v, p);
    v = _mm256_blend_pd(mn, mx, 0b1100);
    p = _mm256_permute_pd(v, 0b0101);
    mn = _mm256_min_pd(v, p);
    mx = _mm256_max_pd(v, p);
    return _mm256_blend_pd(mn, mx, 0b1010);
}

/** Merge two ascending 4-vectors into ascending lo (smallest) / hi. */
static inline void
bitonicMerge8(__m256d x, __m256d y, __m256d &lo, __m256d &hi)
{
    y = _mm256_permute4x64_pd(y, _MM_SHUFFLE(0, 1, 2, 3)); // reverse
    lo = bitonicSort4(_mm256_min_pd(x, y));
    hi = bitonicSort4(_mm256_max_pd(x, y));
}

static inline uint64_t
mergeSortedBitonic256(const double *a, size_t na, const double *b,
                      size_t nb, double *out)
{
    if (na == 0 || nb == 0) {
        if (na > 0)
            std::memcpy(out, a, na * sizeof(double));
        if (nb > 0)
            std::memcpy(out, b, nb * sizeof(double));
        return 0;
    }
    if (na < 4 || nb < 4 || !mergeFastpathOk256(a, na) ||
        !mergeFastpathOk256(b, nb))
        return mergeSortedScalar(a, na, b, nb, out);

    uint64_t count = mergeCount256(a, na, b, nb);

    size_t ia = 4, ib = 4;
    __m256d lo, hi;
    bitonicMerge8(_mm256_loadu_pd(a), _mm256_loadu_pd(b), lo, hi);
    double *o = out;
    _mm256_storeu_pd(o, lo);
    o += 4;

    // Invariant: hi holds the 4 largest loaded elements, each <= its
    // source array's current head — so the emitted low quad is <=
    // every unloaded element. Ternaries compile to cmov/blend; the
    // head comparison would mispredict half the time as a branch.
    while (ia + 4 <= na && ib + 4 <= nb) {
        bool take_a = a[ia] <= b[ib];
        const double *src = take_a ? a + ia : b + ib;
        ia += take_a ? 4 : 0;
        ib += take_a ? 0 : 4;
        bitonicMerge8(_mm256_loadu_pd(src), hi, lo, hi);
        _mm256_storeu_pd(o, lo);
        o += 4;
    }

    // Drain: three-way merge of the register residue and both tails.
    // Tie order is unobservable (equal values are bit-identical), so
    // any min-first pick is correct.
    alignas(32) double h[4];
    _mm256_store_pd(h, hi);
    size_t ih = 0;
    while (ih < 4 && ia < na && ib < nb) {
        double x = h[ih], y = a[ia], z = b[ib];
        if (x <= y && x <= z) {
            *o++ = x;
            ++ih;
        } else if (y <= z) {
            *o++ = y;
            ++ia;
        } else {
            *o++ = z;
            ++ib;
        }
    }
    while (ih < 4 && ia < na) {
        if (h[ih] <= a[ia]) {
            *o++ = h[ih];
            ++ih;
        } else {
            *o++ = a[ia];
            ++ia;
        }
    }
    while (ih < 4 && ib < nb) {
        if (h[ih] <= b[ib]) {
            *o++ = h[ih];
            ++ih;
        } else {
            *o++ = b[ib];
            ++ib;
        }
    }
    while (ih < 4)
        *o++ = h[ih++];
    while (ia < na && ib < nb) {
        if (b[ib] < a[ia])
            *o++ = b[ib++];
        else
            *o++ = a[ia++];
    }
    if (ia < na)
        std::memcpy(o, a + ia, (na - ia) * sizeof(double));
    if (ib < nb)
        std::memcpy(o, b + ib, (nb - ib) * sizeof(double));
    return count;
}

} // namespace detail
} // namespace simd
} // namespace sharp

#endif // defined(__AVX2__)
#endif // SHARP_SIMD_MERGE256_HH
