/* Timing and streaming kernels for the native backend.
 *
 * Timing uses rdtsc serialized with mfence+lfence on both sides; the chase
 * loop is a dependent-load walk (mov (%rbx),%rbx equivalent) unrolled 8x.
 * Built by native.build_kernels with cc -O2 -shared -fPIC, and cached under
 * a hash of this file, the flags and the compiler.
 */

#include <stdint.h>
#include <stddef.h>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#include <immintrin.h>

static inline uint64_t fenced_tsc(void) {
    _mm_mfence();
    _mm_lfence();
    uint64_t t = __rdtsc();
    _mm_lfence();
    return t;
}

uint64_t mc_timer_overhead(void) {
    uint64_t t0 = fenced_tsc();
    uint64_t t1 = fenced_tsc();
    return t1 - t0;
}

uint64_t mc_tsc(void) {
    return fenced_tsc();
}

/* Walk the pointer chain for `count` dependent loads; returns elapsed TSC
 * ticks.  The final pointer is written to *sink so the chase is not dead. */
uint64_t mc_chase(void **start, uint64_t count, void ***sink) {
    void **p = start;
    uint64_t t0 = fenced_tsc();
    uint64_t i = 0;
    for (; i + 8 <= count; i += 8) {
        p = (void **)*p; p = (void **)*p; p = (void **)*p; p = (void **)*p;
        p = (void **)*p; p = (void **)*p; p = (void **)*p; p = (void **)*p;
    }
    for (; i < count; i++)
        p = (void **)*p;
    uint64_t t1 = fenced_tsc();
    *sink = p;
    return t1 - t0;
}

/* Read-touch every `stride`-th byte (TLB warm-up / cache flushing). */
uint64_t mc_touch(volatile char *buf, uint64_t bytes, uint64_t stride) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < bytes; i += stride)
        acc += buf[i];
    return acc;
}

void mc_write_touch(volatile char *buf, uint64_t bytes, uint64_t stride, char v) {
    for (uint64_t i = 0; i < bytes; i += stride)
        buf[i] = v;
}

void mc_clflush(volatile char *buf, uint64_t bytes, uint64_t stride) {
    for (uint64_t i = 0; i < bytes; i += stride)
        _mm_clflush((const void *)(buf + i));
    _mm_mfence();
}

/* Streaming read kernels: `burst` registers worth of loads per iteration,
 * ORed into 4 independent accumulators so the loop is bound by the loads,
 * not by one OR dependency chain.  Returns elapsed ticks for `reps` sweeps
 * over `bytes`. */
uint64_t mc_read128(const char *buf, uint64_t bytes, uint64_t reps, uint64_t *check) {
    __m128i a0 = _mm_setzero_si128(), a1 = a0, a2 = a0, a3 = a0;
    uint64_t t0 = fenced_tsc();
    for (uint64_t r = 0; r < reps; r++) {
        const char *p = buf, *end = buf + bytes;
        for (; p + 8 * 16 <= end; p += 8 * 16) {
            a0 = _mm_or_si128(a0, _mm_load_si128((const __m128i *)(p + 0 * 16)));
            a1 = _mm_or_si128(a1, _mm_load_si128((const __m128i *)(p + 1 * 16)));
            a2 = _mm_or_si128(a2, _mm_load_si128((const __m128i *)(p + 2 * 16)));
            a3 = _mm_or_si128(a3, _mm_load_si128((const __m128i *)(p + 3 * 16)));
            a0 = _mm_or_si128(a0, _mm_load_si128((const __m128i *)(p + 4 * 16)));
            a1 = _mm_or_si128(a1, _mm_load_si128((const __m128i *)(p + 5 * 16)));
            a2 = _mm_or_si128(a2, _mm_load_si128((const __m128i *)(p + 6 * 16)));
            a3 = _mm_or_si128(a3, _mm_load_si128((const __m128i *)(p + 7 * 16)));
        }
    }
    uint64_t t1 = fenced_tsc();
    __m128i acc = _mm_or_si128(_mm_or_si128(a0, a1), _mm_or_si128(a2, a3));
    uint64_t tmp[2];
    _mm_storeu_si128((__m128i *)tmp, acc);
    *check = tmp[0] ^ tmp[1];
    return t1 - t0;
}

#if defined(__AVX2__) || defined(__AVX__)
__attribute__((target("avx")))
uint64_t mc_read256(const char *buf, uint64_t bytes, uint64_t reps, uint64_t *check) {
    __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    uint64_t t0 = fenced_tsc();
    for (uint64_t r = 0; r < reps; r++) {
        const char *p = buf, *end = buf + bytes;
        for (; p + 16 * 32 <= end; p += 16 * 32) {
            a0 = _mm256_or_pd(a0, _mm256_load_pd((const double *)(p + 0 * 32)));
            a1 = _mm256_or_pd(a1, _mm256_load_pd((const double *)(p + 1 * 32)));
            a2 = _mm256_or_pd(a2, _mm256_load_pd((const double *)(p + 2 * 32)));
            a3 = _mm256_or_pd(a3, _mm256_load_pd((const double *)(p + 3 * 32)));
            a0 = _mm256_or_pd(a0, _mm256_load_pd((const double *)(p + 4 * 32)));
            a1 = _mm256_or_pd(a1, _mm256_load_pd((const double *)(p + 5 * 32)));
            a2 = _mm256_or_pd(a2, _mm256_load_pd((const double *)(p + 6 * 32)));
            a3 = _mm256_or_pd(a3, _mm256_load_pd((const double *)(p + 7 * 32)));
            a0 = _mm256_or_pd(a0, _mm256_load_pd((const double *)(p + 8 * 32)));
            a1 = _mm256_or_pd(a1, _mm256_load_pd((const double *)(p + 9 * 32)));
            a2 = _mm256_or_pd(a2, _mm256_load_pd((const double *)(p + 10 * 32)));
            a3 = _mm256_or_pd(a3, _mm256_load_pd((const double *)(p + 11 * 32)));
            a0 = _mm256_or_pd(a0, _mm256_load_pd((const double *)(p + 12 * 32)));
            a1 = _mm256_or_pd(a1, _mm256_load_pd((const double *)(p + 13 * 32)));
            a2 = _mm256_or_pd(a2, _mm256_load_pd((const double *)(p + 14 * 32)));
            a3 = _mm256_or_pd(a3, _mm256_load_pd((const double *)(p + 15 * 32)));
        }
    }
    uint64_t t1 = fenced_tsc();
    __m256d acc = _mm256_or_pd(_mm256_or_pd(a0, a1), _mm256_or_pd(a2, a3));
    double tmp[4];
    _mm256_storeu_pd(tmp, acc);
    *check = (uint64_t)tmp[0] ^ (uint64_t)tmp[3];
    return t1 - t0;
}
#endif

/* STREAM triad: a[i] = b[i] + s*c[i]; optional non-temporal stores. */
uint64_t mc_triad(double *a, const double *b, const double *c, double s,
                  uint64_t n, int nontemporal) {
    uint64_t t0 = fenced_tsc();
    if (nontemporal) {
#if defined(__SSE2__) || defined(__x86_64__)
        uint64_t i = 0;
        for (; i + 2 <= n; i += 2) {
            __m128d vb = _mm_loadu_pd(b + i);
            __m128d vc = _mm_loadu_pd(c + i);
            __m128d vr = _mm_add_pd(vb, _mm_mul_pd(_mm_set1_pd(s), vc));
            _mm_stream_pd(a + i, vr);
        }
        for (; i < n; i++)
            a[i] = b[i] + s * c[i];
        _mm_sfence();
#else
        for (uint64_t i = 0; i < n; i++)
            a[i] = b[i] + s * c[i];
#endif
    } else {
        for (uint64_t i = 0; i < n; i++)
            a[i] = b[i] + s * c[i];
    }
    uint64_t t1 = fenced_tsc();
    return t1 - t0;
}

/* Sattolo's shuffle of 0..n-1 into `perm`, driven by the pinned xorshift
 * from `state` (already seeded by chain.py's splitmix64 scramble).  Produces
 * the same table as chain._sattolo_py. */
void mc_sattolo(int64_t *perm, uint64_t n, uint64_t state) {
    uint64_t s = state;
    for (uint64_t i = 0; i < n; i++)
        perm[i] = (int64_t)i;
    for (uint64_t i = n - 1; n > 1 && i > 0; i--) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        uint64_t j = s % i;
        int64_t t = perm[i];
        perm[i] = perm[j];
        perm[j] = t;
    }
}

/* Walk the successor table `succ` of `n` elements from element 0 until an
 * element is reached a second time.  `first_seen` (n slots, caller-owned
 * scratch) records the step at which each element was first reached.
 * Returns the step of the first revisit and stores the length of the cycle
 * it closes in *cycle_length.  Every entry of `succ` must lie in [0, n);
 * the caller checks that first.  Only the test suite's chain oracle calls it
 * (tests/oracles.py, beside the same walk in Python). */
uint64_t mc_chain_walk(const int64_t *succ, uint64_t n, int64_t *first_seen,
                       uint64_t *cycle_length) {
    for (uint64_t i = 1; i < n; i++)
        first_seen[i] = -1;
    first_seen[0] = 0;
    uint64_t idx = 0, step = 0;
    for (;;) {
        idx = (uint64_t)succ[idx];
        step++;
        if (first_seen[idx] >= 0) {
            *cycle_length = step - (uint64_t)first_seen[idx];
            return step;
        }
        first_seen[idx] = (int64_t)step;
    }
}

int mc_has_avx512(void) {
#if defined(__AVX512F__)
    return 1;
#else
    return 0;
#endif
}

#endif /* x86_64 */
