/* Timing and streaming kernels for the native backend.
 *
 * Timing uses rdtsc serialized with mfence+lfence on both sides; the chase
 * loop is a dependent-load walk (mov (%rbx),%rbx equivalent) unrolled 8x.
 * Built once by native.build_kernels with cc -O2 -shared -fPIC, and cached
 * under a hash of this file, the flags and the compiler.  No -m flag widens
 * the build: every kernel keeps to the x86-64 baseline (SSE2) except
 * mc_read256, which is compiled under target("avx") and runs only where
 * mc_cpu_has_avx reports the CPU can run it.
 *
 * No intrinsics header is included: <x86intrin.h> and <immintrin.h> expand
 * to some 64,000 lines, and parsing them was almost all of a cold build
 * (gcc 12 -O2: about 0.6 s with them, 0.15 s without).  The fences, rdtsc
 * and clflush are the compiler builtins those headers wrap, and the SIMD
 * code uses vector types with the headers' definitions of __m128i, __m128d
 * and __m256d.
 * When the headers went, objdump -d of the header build under gcc 12.2
 * matched every function byte for byte, so each timed region kept its load
 * widths, non-temporal stores and fence order.  tests/test_native.py checks
 * the shape of each timed region, and that no function but mc_read256
 * holds a VEX or EVEX instruction.  The __clang__ spellings follow clang's
 * own headers and are untested.
 *
 * Two untimed kernels write what a timed one reads.  mc_chain_write writes
 * a chain into its region.  On a recycled mapping it streams the first
 * `span` bytes of every element with 16-byte non-temporal stores, slot
 * word and zeros together: the first 64-byte line alone when the mapping's
 * last user was a chain of the same stride and element count, else the
 * whole element, since that user may have written anywhere.  Such a chain
 * left nothing past each element's first line, and neither does a measured
 * point on it: its WRITE step stores at slot + 8, inside that line.  A
 * streamed line is written without first being read for ownership.  The
 * whole line is streamed: a partial line leaves its write-combining buffer
 * half full.  On an Intel Xeon KVM guest, a 150 MiB chain at a 512-byte
 * stride took 27 ms streaming 16 or 32 bytes per element, 9.1 ms streaming
 * elements whole and 2.2 ms streaming first lines.  mc_triad_init zeroes
 * the triad's result array and, unless the mapping still holds them from a
 * triad of the same length and stride, writes its operands two elements
 * per packed store.  All are plain stores, so the timed kernel starts from
 * the cache state they leave.
 */

#include <stdint.h>
#include <stddef.h>

#if defined(__x86_64__) || defined(_M_X64)

typedef long long v2di __attribute__((vector_size(16), may_alias));
typedef unsigned long long v2du __attribute__((vector_size(16)));
typedef double v2df __attribute__((vector_size(16), may_alias));
typedef double v2df_u __attribute__((vector_size(16), may_alias, aligned(1)));
typedef double v4df __attribute__((vector_size(32), may_alias));
typedef long long v4di __attribute__((vector_size(32), may_alias));

/* _mm_or_si128 as the header writes it; a plain `a | b` on v2di changes the
 * order in which gcc pairs the loads of mc_read128. */
static inline v2di or128(v2di a, v2di b) { return (v2di)((v2du)a | (v2du)b); }

#if defined(__clang__)
#define OR256(a, b) ((v4df)((v4di)(a) | (v4di)(b)))
#define STREAM_PD(p, v) __builtin_nontemporal_store((v), (v2df *)(p))
#define STREAM_SI128(p, v) __builtin_nontemporal_store((v), (v2di *)(p))
#else
#define OR256(a, b) __builtin_ia32_orpd256((a), (b))
#define STREAM_PD(p, v) __builtin_ia32_movntpd((p), (v))
#define STREAM_SI128(p, v) __builtin_ia32_movntdq((v2di *)(p), (v))
#endif

static inline uint64_t fenced_tsc(void) {
    __builtin_ia32_mfence();
    __builtin_ia32_lfence();
    uint64_t t = __builtin_ia32_rdtsc();
    __builtin_ia32_lfence();
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
        __builtin_ia32_clflush((const void *)(buf + i));
    __builtin_ia32_mfence();
}

/* Streaming read kernels: `burst` registers worth of loads per iteration,
 * ORed into 4 independent accumulators so the loop is bound by the loads,
 * not by one OR dependency chain.  Returns elapsed ticks for `reps` sweeps
 * over `bytes`, and stores in *check the XOR of the 64-bit lanes of the ORed
 * accumulators, their bits folded as they are. */
uint64_t mc_read128(const char *buf, uint64_t bytes, uint64_t reps, uint64_t *check) {
    v2di a0 = {0, 0}, a1 = a0, a2 = a0, a3 = a0;
    uint64_t t0 = fenced_tsc();
    for (uint64_t r = 0; r < reps; r++) {
        const char *p = buf, *end = buf + bytes;
        for (; p + 8 * 16 <= end; p += 8 * 16) {
            a0 = or128(a0, *(const v2di *)(p + 0 * 16));
            a1 = or128(a1, *(const v2di *)(p + 1 * 16));
            a2 = or128(a2, *(const v2di *)(p + 2 * 16));
            a3 = or128(a3, *(const v2di *)(p + 3 * 16));
            a0 = or128(a0, *(const v2di *)(p + 4 * 16));
            a1 = or128(a1, *(const v2di *)(p + 5 * 16));
            a2 = or128(a2, *(const v2di *)(p + 6 * 16));
            a3 = or128(a3, *(const v2di *)(p + 7 * 16));
        }
    }
    uint64_t t1 = fenced_tsc();
    v2di acc = or128(or128(a0, a1), or128(a2, a3));
    uint64_t tmp[2];
    __builtin_memcpy(tmp, &acc, sizeof tmp);
    *check = tmp[0] ^ tmp[1];
    return t1 - t0;
}

/* 1 where the CPU runs AVX, and so mc_read256, else 0.  The builtin reads
 * the CPU model that libgcc fills in at load, before any kernel is called. */
int mc_cpu_has_avx(void) {
    return __builtin_cpu_supports("avx") != 0;
}

__attribute__((target("avx")))
uint64_t mc_read256(const char *buf, uint64_t bytes, uint64_t reps, uint64_t *check) {
    v4df a0 = {0.0, 0.0, 0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0;
    uint64_t t0 = fenced_tsc();
    for (uint64_t r = 0; r < reps; r++) {
        const char *p = buf, *end = buf + bytes;
        for (; p + 16 * 32 <= end; p += 16 * 32) {
            a0 = OR256(a0, *(const v4df *)(p + 0 * 32));
            a1 = OR256(a1, *(const v4df *)(p + 1 * 32));
            a2 = OR256(a2, *(const v4df *)(p + 2 * 32));
            a3 = OR256(a3, *(const v4df *)(p + 3 * 32));
            a0 = OR256(a0, *(const v4df *)(p + 4 * 32));
            a1 = OR256(a1, *(const v4df *)(p + 5 * 32));
            a2 = OR256(a2, *(const v4df *)(p + 6 * 32));
            a3 = OR256(a3, *(const v4df *)(p + 7 * 32));
            a0 = OR256(a0, *(const v4df *)(p + 8 * 32));
            a1 = OR256(a1, *(const v4df *)(p + 9 * 32));
            a2 = OR256(a2, *(const v4df *)(p + 10 * 32));
            a3 = OR256(a3, *(const v4df *)(p + 11 * 32));
            a0 = OR256(a0, *(const v4df *)(p + 12 * 32));
            a1 = OR256(a1, *(const v4df *)(p + 13 * 32));
            a2 = OR256(a2, *(const v4df *)(p + 14 * 32));
            a3 = OR256(a3, *(const v4df *)(p + 15 * 32));
        }
    }
    uint64_t t1 = fenced_tsc();
    v4df acc = OR256(OR256(a0, a1), OR256(a2, a3));
    uint64_t tmp[4];
    __builtin_memcpy(tmp, &acc, sizeof tmp);
    *check = tmp[0] ^ tmp[1] ^ tmp[2] ^ tmp[3];
    return t1 - t0;
}

/* STREAM triad: a[i] = b[i] + s*c[i]; optional non-temporal stores. */
uint64_t mc_triad(double *a, const double *b, const double *c, double s,
                  uint64_t n, int nontemporal) {
    uint64_t t0 = fenced_tsc();
    if (nontemporal) {
        uint64_t i = 0;
        for (; i + 2 <= n; i += 2) {
            v2df vb = *(const v2df_u *)(b + i);
            v2df vc = *(const v2df_u *)(c + i);
            v2df vr = vb + (v2df){s, s} * vc;
            STREAM_PD(a + i, vr);
        }
        for (; i < n; i++)
            a[i] = b[i] + s * c[i];
        __builtin_ia32_sfence();
    } else {
        for (uint64_t i = 0; i < n; i++)
            a[i] = b[i] + s * c[i];
    }
    uint64_t t1 = fenced_tsc();
    return t1 - t0;
}

/* Sattolo's shuffle of 0..n-1 into `perm`, driven by the pinned xorshift
 * from `state` (already seeded by chain.py's splitmix64 scramble).  Produces
 * the same table as the reference shuffle in tests/oracles.py. */
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

/* Write the chain of `n` elements, `stride` bytes apart, into the region
 * at `base`: element i's first word becomes base + succ[i] * stride.  A
 * nonzero `span` (a recycled mapping; 64 or `stride`) writes the first
 * `span` bytes of every element in the same pass by 16-byte non-temporal
 * stores, the slot word and then zeros, and one sfence follows them, as in
 * mc_triad.  A zero `span` (a fresh mapping, which the operating system
 * zeroed) stores the slot words only.  `base` is 16-byte aligned and
 * `stride` a multiple of 64. */
void mc_chain_write(char *base, const int64_t *succ, uint64_t n, uint64_t stride,
                    uint64_t span) {
    uint64_t b = (uint64_t)(uintptr_t)base;
    if (span) {
        const v2di zero = {0, 0};
        for (uint64_t i = 0; i < n; i++) {
            char *p = base + i * stride;
            STREAM_SI128(p, ((v2di){(long long)(b + (uint64_t)succ[i] * stride), 0}));
            for (uint64_t off = 16; off < span; off += 16)
                STREAM_SI128(p + off, zero);
        }
        __builtin_ia32_sfence();
    } else {
        for (uint64_t i = 0; i < n; i++)
            *(uint64_t *)(base + i * stride) = b + (uint64_t)succ[i] * stride;
    }
}

/* The triad's operands, b[i] = i and c[i] = n - i, when `operands` is
 * nonzero, then a zeroed either way, so a result a recycled mapping still
 * holds cannot pass the check.  b and c take two elements per 16-byte
 * store from a vector of indices counted up by 2.0, with no integer to
 * double conversion per element; every value is an integer below 2**53, so
 * each is exact.  Untimed, plain stores. */
void mc_triad_init(double *a, double *b, double *c, uint64_t n, int operands) {
    if (operands) {
        const double dn = (double)n;
        const v2df two = {2.0, 2.0}, vn = {dn, dn};
        v2df v = {0.0, 1.0};
        uint64_t i = 0;
        for (; i + 2 <= n; i += 2, v += two)
            *(v2df_u *)(b + i) = v;
        if (i < n)
            b[i] = v[0];
        v = (v2df){0.0, 1.0};
        for (i = 0; i + 2 <= n; i += 2, v += two)
            *(v2df_u *)(c + i) = vn - v;
        if (i < n)
            c[i] = dn - v[0];
    }
    for (uint64_t i = 0; i < n; i++)
        a[i] = 0.0;
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

#endif /* x86_64 */
