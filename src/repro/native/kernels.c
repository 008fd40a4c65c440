/* Native kernels of the fused convolution pipelines.
 *
 * The paper's speed comes from vpdpbusd: u8 x s8 -> s32, four products
 * per 32-bit lane (Sections 4.2.1 and 4.3), fed and drained by fused
 * transform passes (Section 4, Figure 3).  This file holds the GEMMs,
 * the two passes that build the direct algorithm's u8 operand, and the
 * two Winograd transform passes (documented at their section below):
 *
 *   gemm_u8s8     C[t] = init[t] + A[t] . B[t]   u8 x s8 -> s32
 *   gemm_s16s16   C[t] = init[t] + A[t] . B[t]   s16 x s16 -> s32
 *   quantize_pad_u8   clip(rint(x * scale)) + 128 into a 128 border
 *   im2col_u8         (M, Kp) rows in (C, r, r) column order
 *   winograd_in       gather + B^T d B (+ quantize) into the GEMM operand
 *   winograd_out      (dequantize +) A^T Z A + assembly into the output
 *
 * Operands.  A is row-major (T, M, Kp), Kp a multiple of 4; its bytes
 * past the true reduction length K are never read into a sum that
 * matters, because B's padding rows are zero.  B is packed once per
 * plan by repro.native.pack_b: (T, ceil(N / 16), Kp / P, 16, P) with
 * P = 4 bytes (s8) or 2 words (s16), i.e. one 64-byte row of 16 output
 * columns per group of P reduction steps -- the operand layout of one
 * 512-bit vpdpbusd / vpdpwssd.  init is (T, N) s32 and C is (T, M, N).
 *
 * Arithmetic.  Every product and the sum of four u8 x s8 products are
 * exact in s32; sums wrap modulo 2^32 (the portable variant accumulates
 * in uint32_t for the same result without signed overflow).  The one
 * s16 pair that overflows a 32-bit lane, (-32768)^2 * 2 = 2^31, also
 * wraps to its value modulo 2^32.  So each variant computes the exact
 * integer result reduced modulo 2^32 -- what the reference layers'
 * int32 casts compute -- independent of summation order.
 *
 * Variants.  avx512_vnni (vpdpbusd / vpdpwssd; 8-lane zmm fma in the
 * transforms), avx2 (vpmaddwd on operands widened to s16 -- never the
 * saturating vpmaddubsw; 4-lane ymm fma) and portable C (fma()).  Each
 * is a set of exported symbols; repro_native_variants() lists the ones
 * this CPU runs, best first, and the loader binds the first.  The file
 * builds without -march flags: the SIMD variants carry target
 * attributes, and non-x86 builds compile only the portable C.
 *
 * Threads.  Every entry point above runs through the thread team
 * (documented at its section below), which cuts the call into chunks
 * that write disjoint parts of the output with the serial arithmetic,
 * so the bytes do not depend on how many threads ran them.
 */

#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_X86 1
#include <immintrin.h>
#endif

#define LANES 16

/* GCC vectorizes quantize_pad_u8's double -> u8 narrowing only with
 * AVX2's conversions; the clone is resolved once, when the library loads. */
#ifdef REPRO_X86
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

static inline int32_t load_i32(const void *p) {
    int32_t v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* -- the thread team (Section 4.4) --------------------------------------- *
 *
 * One process-wide team of omega threads: the calling thread plus
 * omega - 1 helper pthreads, started on the first split call.  omega is
 * the CPU count of the process's affinity mask at that moment; nothing
 * else sets it.
 *
 * A call is a range of ``units`` independent units -- (image, tile row)
 * of a transform pass, T planes (or blocks of GEMM_ROWS rows when T = 1)
 * of a GEMM, images of the u8 operand passes -- cut into
 * min(units, CHUNKS_PER_THREAD * omega) contiguous chunks.  Chunk i
 * covers units [units * i / n, units * (i + 1) / n): its range is fixed
 * before the call runs, as Section 4.4's static schedule fixes it, and
 * each chunk writes only its own units' outputs with the serial
 * arithmetic.
 *
 * Which thread runs a chunk is decided at run time.  Each thread (the
 * caller too) claims the next chunk from a counter tagged with the
 * call's generation, so a helper that wakes late claims nothing of a
 * later call.  The caller waits only for chunks that a running thread
 * has claimed, never for a helper to start: with no helper running, a
 * call costs one claim loop more than the serial code.  A static
 * assignment would have the caller wait on a helper whose vCPU the host
 * is not running (DESIGN 6h).
 *
 * Idle helpers park on a condition variable at once; nothing spins
 * between calls.  A call below SPLIT_MIN_WORK (DESIGN 6h has its
 * measurement), a call with one unit, a team of one, and a call that
 * finds the team owned by another thread run inline on the caller
 * without waking anyone.
 *
 * fork(): the owner lock is held across it, so no call is in flight;
 * the child has no helpers, so it sets omega = 1 and runs every call
 * inline on its own thread.
 */

/* Chunks per team thread: more than one, so a helper that starts late
 * leaves its share to the threads that run. */
#define CHUNKS_PER_THREAD 4
/* Work below which a split does not pay for waking a helper.  Each entry
 * point estimates its work as its serial time in nanoseconds on the
 * avx512_vnni host of DESIGN 6h, within about 2x; that section has the
 * measurement behind the 30 us. */
#define SPLIT_MIN_WORK 30000
/* Rows per unit of a one-plane GEMM: a multiple of both micro-kernels'
 * row blocks (6 for avx512_vnni, 4 for avx2). */
#define GEMM_ROWS 12

typedef void (*chunk_fn)(const void *args, int64_t lo, int64_t hi);

static struct {
    pthread_mutex_t owner; /* held by the caller of a split call */
    pthread_mutex_t mu;    /* guards the job fields and gen */
    pthread_cond_t wake;   /* helpers park here */
    int64_t omega;         /* 0 until sized */
    int64_t helpers;       /* helper threads running */
    uint32_t gen;          /* the current call's generation */
    chunk_fn fn;
    const void *args;
    int64_t units, nchunks;
    uint64_t claim;        /* (gen << 32) | next chunk, atomic */
    int64_t done;          /* chunks finished in this call, atomic */
    int64_t stats[5];      /* split, inline, chunks, by caller, by helpers */
} team = {.owner = PTHREAD_MUTEX_INITIALIZER,
            .mu = PTHREAD_MUTEX_INITIALIZER,
            .wake = PTHREAD_COND_INITIALIZER};

enum { SPLIT_CALLS, INLINE_CALLS, CHUNKS, CHUNKS_CALLER, CHUNKS_HELPERS };

static inline void count(int which, int64_t n) {
    __atomic_fetch_add(&team.stats[which], n, __ATOMIC_RELAXED);
}

static inline void cpu_relax(void) {
#ifdef REPRO_X86
    __builtin_ia32_pause();
#endif
}

static int64_t team_size(void) {
    int64_t omega = __atomic_load_n(&team.omega, __ATOMIC_ACQUIRE);
    if (omega)
        return omega;
#ifdef __linux__
    cpu_set_t set;
    omega = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
#else
    omega = sysconf(_SC_NPROCESSORS_ONLN);
#endif
    omega = omega < 1 ? 1 : omega;
    int64_t unset = 0;
    __atomic_compare_exchange_n(&team.omega, &unset, omega, 0, __ATOMIC_ACQ_REL,
                                __ATOMIC_ACQUIRE);
    return __atomic_load_n(&team.omega, __ATOMIC_ACQUIRE);
}

/* The next unclaimed chunk of call ``gen``, or -1 once it has none. */
static int64_t claim_chunk(uint32_t gen, int64_t nchunks) {
    uint64_t cur = __atomic_load_n(&team.claim, __ATOMIC_ACQUIRE);
    for (;;) {
        if ((uint32_t)(cur >> 32) != gen || (int64_t)(cur & 0xFFFFFFFFu) >= nchunks)
            return -1;
        if (__atomic_compare_exchange_n(&team.claim, &cur, cur + 1, 1, __ATOMIC_ACQ_REL,
                                        __ATOMIC_ACQUIRE))
            return (int64_t)(cur & 0xFFFFFFFFu);
    }
}

static void run_chunks(uint32_t gen, chunk_fn fn, const void *args, int64_t units,
                       int64_t nchunks, int who) {
    int64_t i;
    while ((i = claim_chunk(gen, nchunks)) >= 0) {
        fn(args, units * i / nchunks, units * (i + 1) / nchunks);
        count(who, 1);
        __atomic_fetch_add(&team.done, 1, __ATOMIC_RELEASE);
    }
}

static void *helper_main(void *arg) {
    uint32_t seen = (uint32_t)(uintptr_t)arg;
    pthread_mutex_lock(&team.mu);
    for (;;) {
        while (team.gen == seen)
            pthread_cond_wait(&team.wake, &team.mu);
        seen = team.gen;
        chunk_fn fn = team.fn;
        const void *args = team.args;
        int64_t units = team.units, nchunks = team.nchunks;
        pthread_mutex_unlock(&team.mu);
        run_chunks(seen, fn, args, units, nchunks, CHUNKS_HELPERS);
        pthread_mutex_lock(&team.mu);
    }
    return NULL;
}

static void fork_prepare(void) {
    pthread_mutex_lock(&team.owner);
    pthread_mutex_lock(&team.mu);
}

static void fork_parent(void) {
    pthread_mutex_unlock(&team.mu);
    pthread_mutex_unlock(&team.owner);
}

static void fork_child(void) {
    team.omega = 1;
    team.helpers = 0;
    pthread_cond_init(&team.wake, NULL);
    pthread_mutex_unlock(&team.mu);
    pthread_mutex_unlock(&team.owner);
}

/* Starts the helpers once (the caller owns the team); 0 if none runs.
 * A helper that cannot be created shrinks the team for good. */
static int64_t team_start(int64_t omega) {
    if (team.helpers)
        return team.helpers;
    static int registered;
    if (!registered)
        registered = pthread_atfork(fork_prepare, fork_parent, fork_child) == 0;
    if (!registered) {
        __atomic_store_n(&team.omega, 1, __ATOMIC_RELEASE);
        return 0;
    }
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    for (int64_t i = 1; i < omega; i++) {
        pthread_t thread;
        if (pthread_create(&thread, &attr, helper_main, (void *)(uintptr_t)team.gen) != 0)
            break;
        team.helpers++;
    }
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    __atomic_store_n(&team.omega, team.helpers + 1, __ATOMIC_RELEASE);
    return team.helpers;
}

/* fn(args, lo, hi) over the chunks of [0, units), on the team when the
 * call is worth splitting and the team is free, else inline. */
static void team_run(chunk_fn fn, const void *args, int64_t units, int64_t work) {
    int64_t helpers = 0;
    if (units > 1 && work >= SPLIT_MIN_WORK && team_size() > 1
        && pthread_mutex_trylock(&team.owner) == 0) {
        helpers = team_start(team_size());
        if (!helpers)
            pthread_mutex_unlock(&team.owner);
    }
    if (!helpers) {
        count(INLINE_CALLS, 1);
        fn(args, 0, units);
        return;
    }
    int64_t nchunks = CHUNKS_PER_THREAD * (helpers + 1);
    nchunks = nchunks < units ? nchunks : units;
    pthread_mutex_lock(&team.mu);
    uint32_t gen = ++team.gen;
    team.fn = fn;
    team.args = args;
    team.units = units;
    team.nchunks = nchunks;
    __atomic_store_n(&team.done, 0, __ATOMIC_RELAXED);
    __atomic_store_n(&team.claim, (uint64_t)gen << 32, __ATOMIC_RELEASE);
    pthread_mutex_unlock(&team.mu);
    pthread_cond_broadcast(&team.wake);
    run_chunks(gen, fn, args, units, nchunks, CHUNKS_CALLER);
    for (int spins = 0; __atomic_load_n(&team.done, __ATOMIC_ACQUIRE) < nchunks; spins++) {
        if (spins % 1024 == 1023)
            sched_yield();
        else
            cpu_relax();
    }
    count(SPLIT_CALLS, 1);
    count(CHUNKS, nchunks);
    pthread_mutex_unlock(&team.owner);
}

/* threads (omega), split calls, inline calls, chunks, chunks run by the
 * caller, chunks run by helpers -- counted since the library loaded. */
void repro_team_stats(int64_t *out) {
    out[0] = team_size();
    for (int i = 0; i < 5; i++)
        out[i + 1] = __atomic_load_n(&team.stats[i], __ATOMIC_RELAXED);
}

/* -- portable C ---------------------------------------------------------- */

/* One packed 16-column block over rows [0, rows) of A. */
static void block_u8s8_c(const uint8_t *a, int64_t lda, int64_t rows,
                         const int8_t *bp, int64_t kp, const int32_t *init,
                         int32_t *c, int64_t ldc, int64_t ncols) {
    for (int64_t i = 0; i < rows; i++) {
        uint32_t acc[LANES];
        for (int l = 0; l < LANES; l++)
            acc[l] = l < ncols ? (uint32_t)init[l] : 0u;
        const uint8_t *ai = a + i * lda;
        for (int64_t k4 = 0; k4 < kp / 4; k4++) {
            const uint8_t *av = ai + 4 * k4;
            const int8_t *bv = bp + k4 * 4 * LANES;
            for (int l = 0; l < LANES; l++) {
                int32_t dot = av[0] * bv[4 * l] + av[1] * bv[4 * l + 1]
                            + av[2] * bv[4 * l + 2] + av[3] * bv[4 * l + 3];
                acc[l] += (uint32_t)dot;
            }
        }
        for (int64_t l = 0; l < ncols; l++)
            c[i * ldc + l] = (int32_t)acc[l];
    }
}

static void block_s16s16_c(const int16_t *a, int64_t lda, int64_t rows,
                           const int16_t *bp, int64_t kp, const int32_t *init,
                           int32_t *c, int64_t ldc, int64_t ncols) {
    for (int64_t i = 0; i < rows; i++) {
        uint32_t acc[LANES];
        for (int l = 0; l < LANES; l++)
            acc[l] = l < ncols ? (uint32_t)init[l] : 0u;
        const int16_t *ai = a + i * lda;
        for (int64_t k2 = 0; k2 < kp / 2; k2++) {
            const int16_t *av = ai + 2 * k2;
            const int16_t *bv = bp + k2 * 2 * LANES;
            for (int l = 0; l < LANES; l++) {
                /* each product is at most 2^30; add them as uint32_t */
                acc[l] += (uint32_t)(av[0] * bv[2 * l]) + (uint32_t)(av[1] * bv[2 * l + 1]);
            }
        }
        for (int64_t l = 0; l < ncols; l++)
            c[i * ldc + l] = (int32_t)acc[l];
    }
}

/* Each variant's serial GEMM over T planes of m rows: a and b as bytes. */
#define GEMM_ARGS                                                                        \
    const uint8_t *a, const uint8_t *b, const int32_t *init, int32_t *c, int64_t t,      \
        int64_t m, int64_t n, int64_t kp
typedef void (*gemm_fn)(GEMM_ARGS);

static void gemm_u8s8_c(GEMM_ARGS) {
    int64_t nb = (n + LANES - 1) / LANES;
    for (int64_t ti = 0; ti < t; ti++)
        for (int64_t j = 0; j < nb; j++) {
            int64_t n0 = j * LANES;
            int64_t ncols = n - n0 < LANES ? n - n0 : LANES;
            block_u8s8_c(a + ti * m * kp, kp, m, (const int8_t *)b + (ti * nb + j) * kp * LANES,
                         kp, init + ti * n + n0, c + ti * m * n + n0, n, ncols);
        }
}

static void gemm_s16s16_c(GEMM_ARGS) {
    int64_t nb = (n + LANES - 1) / LANES;
    const int16_t *a16 = (const int16_t *)a, *b16 = (const int16_t *)b;
    for (int64_t ti = 0; ti < t; ti++)
        for (int64_t j = 0; j < nb; j++) {
            int64_t n0 = j * LANES;
            int64_t ncols = n - n0 < LANES ? n - n0 : LANES;
            block_s16s16_c(a16 + ti * m * kp, kp, m, b16 + (ti * nb + j) * kp * LANES, kp,
                           init + ti * n + n0, c + ti * m * n + n0, n, ncols);
        }
}

#ifdef REPRO_X86

/* -- AVX-512 VNNI -------------------------------------------------------- *
 * Micro-kernel: MR rows x NB blocks of 16 columns, MR <= 6 and NB <= 4
 * (24 accumulators, NB B registers, one broadcast).  P is the packing
 * depth: 4 for u8 x s8 (vpdpbusd), 2 for s16 x s16 (vpdpwssd); either
 * way one 32-bit broadcast of A meets one 64-byte row of B. */
#define VNNI __attribute__((target("avx512f,avx512vnni")))
#define VNNI_INLINE static inline __attribute__((always_inline, target("avx512f,avx512vnni")))

VNNI_INLINE void ukr_vnni(const int mr, const int nb, const int s16,
                          const uint8_t *a, int64_t lda, const uint8_t *b, int64_t bstride,
                          int64_t steps, const __m512i *init, int32_t *c, int64_t ldc,
                          __mmask16 last) {
    __m512i acc[6][4];
#pragma GCC unroll 6
    for (int i = 0; i < mr; i++)
#pragma GCC unroll 4
        for (int j = 0; j < nb; j++)
            acc[i][j] = init[j];
    for (int64_t s = 0; s < steps; s++) {
        __m512i bv[4];
#pragma GCC unroll 4
        for (int j = 0; j < nb; j++)
            bv[j] = _mm512_loadu_si512((const void *)(b + j * bstride + s * 64));
#pragma GCC unroll 6
        for (int i = 0; i < mr; i++) {
            __m512i av = _mm512_set1_epi32(load_i32(a + i * lda + s * 4));
#pragma GCC unroll 4
            for (int j = 0; j < nb; j++)
                acc[i][j] = s16 ? _mm512_dpwssd_epi32(acc[i][j], av, bv[j])
                                : _mm512_dpbusd_epi32(acc[i][j], av, bv[j]);
        }
    }
#pragma GCC unroll 6
    for (int i = 0; i < mr; i++)
#pragma GCC unroll 4
        for (int j = 0; j < nb; j++)
            _mm512_mask_storeu_epi32(c + i * ldc + 16 * j, j == nb - 1 ? last : 0xFFFF,
                                     acc[i][j]);
}

#define UKR_VNNI_CASE(MR, NB) \
    case MR * 8 + NB: ukr_vnni(MR, NB, s16, a, lda, b, bstride, steps, init, c, ldc, last); break;
#define UKR_VNNI_ROW(MR) \
    UKR_VNNI_CASE(MR, 1) UKR_VNNI_CASE(MR, 2) UKR_VNNI_CASE(MR, 3) UKR_VNNI_CASE(MR, 4)

VNNI_INLINE void ukr_vnni_any(const int s16, int mr, int nb, const uint8_t *a, int64_t lda,
                              const uint8_t *b, int64_t bstride, int64_t steps,
                              const __m512i *init, int32_t *c, int64_t ldc, __mmask16 last) {
    switch (mr * 8 + nb) {
        UKR_VNNI_ROW(1) UKR_VNNI_ROW(2) UKR_VNNI_ROW(3)
        UKR_VNNI_ROW(4) UKR_VNNI_ROW(5) UKR_VNNI_ROW(6)
    }
}

/* a, b as bytes; esize = element size of A and B (1 or 2). */
VNNI_INLINE void gemm_vnni(const int s16, const uint8_t *a, const uint8_t *b,
                           const int32_t *init, int32_t *c, int64_t t, int64_t m,
                           int64_t n, int64_t kp) {
    const int64_t esize = s16 ? 2 : 1;
    const int64_t lda = kp * esize;            /* bytes per A row */
    const int64_t bstride = kp * esize * 16;   /* bytes per packed 16-column block */
    const int64_t steps = lda / 4;             /* 32-bit groups along K */
    const int64_t nblocks = (n + 15) / 16;
    for (int64_t ti = 0; ti < t; ti++) {
        const uint8_t *at = a + ti * m * lda;
        const uint8_t *bt = b + ti * nblocks * bstride;
        for (int64_t j0 = 0; j0 < nblocks; j0 += 4) {
            int nb = nblocks - j0 < 4 ? (int)(nblocks - j0) : 4;
            int64_t n0 = j0 * 16;
            int64_t tail = n - (n0 + 16 * (nb - 1));
            __mmask16 last = (__mmask16)(tail >= 16 ? 0xFFFF : (1u << tail) - 1u);
            __m512i iv[4];
            for (int j = 0; j < nb; j++)
                iv[j] = _mm512_maskz_loadu_epi32(j == nb - 1 ? last : 0xFFFF,
                                                 init + ti * n + n0 + 16 * j);
            int32_t *ct = c + ti * m * n + n0;
            for (int64_t i0 = 0; i0 < m; i0 += 6) {
                int mr = m - i0 < 6 ? (int)(m - i0) : 6;
                ukr_vnni_any(s16, mr, nb, at + i0 * lda, lda, bt + j0 * bstride, bstride,
                             steps, iv, ct + i0 * n, n, last);
            }
        }
    }
}

static VNNI void gemm_u8s8_avx512_vnni(GEMM_ARGS) { gemm_vnni(0, a, b, init, c, t, m, n, kp); }
static VNNI void gemm_s16s16_avx512_vnni(GEMM_ARGS) { gemm_vnni(1, a, b, init, c, t, m, n, kp); }

/* -- AVX2 ---------------------------------------------------------------- *
 * Micro-kernel: MR <= 4 rows x one packed 16-column block (two 8-lane
 * registers).  vpmaddwd multiplies s16 pairs exactly.  For u8 x s8 the
 * 32-bit lane of B holds four s8 bytes (k0..k3); its even bytes (k0, k2)
 * and odd bytes (k1, k3) are sign-extended to s16 pairs, A's broadcast
 * bytes are zero-extended the same way, and two vpmaddwd cover the four
 * products.  For s16 x s16 one vpmaddwd covers the pair. */
#define AVX2 __attribute__((target("avx2")))
#define AVX2_INLINE static inline __attribute__((always_inline, target("avx2")))

AVX2_INLINE void ukr_avx2(const int mr, const int s16, const uint8_t *a, int64_t lda,
                          const uint8_t *b, int64_t steps, const int32_t *init,
                          int32_t *c, int64_t ldc, int64_t ncols) {
    const __m256i lo8 = _mm256_set1_epi16(0x00FF);
    __m256i i0 = _mm256_loadu_si256((const __m256i *)init);
    __m256i i1 = _mm256_loadu_si256((const __m256i *)(init + 8));
    __m256i acc[4][2];
#pragma GCC unroll 4
    for (int i = 0; i < mr; i++) {
        acc[i][0] = i0;
        acc[i][1] = i1;
    }
    for (int64_t s = 0; s < steps; s++) {
        __m256i b0 = _mm256_loadu_si256((const __m256i *)(b + s * 64));
        __m256i b1 = _mm256_loadu_si256((const __m256i *)(b + s * 64 + 32));
        if (s16) {
#pragma GCC unroll 4
            for (int i = 0; i < mr; i++) {
                __m256i av = _mm256_set1_epi32(load_i32(a + i * lda + s * 4));
                acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(av, b0));
                acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(av, b1));
            }
        } else {
            __m256i b0e = _mm256_srai_epi16(_mm256_slli_epi16(b0, 8), 8);
            __m256i b0o = _mm256_srai_epi16(b0, 8);
            __m256i b1e = _mm256_srai_epi16(_mm256_slli_epi16(b1, 8), 8);
            __m256i b1o = _mm256_srai_epi16(b1, 8);
#pragma GCC unroll 4
            for (int i = 0; i < mr; i++) {
                __m256i av = _mm256_set1_epi32(load_i32(a + i * lda + s * 4));
                __m256i ae = _mm256_and_si256(av, lo8);
                __m256i ao = _mm256_srli_epi16(av, 8);
                acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_add_epi32(
                    _mm256_madd_epi16(ae, b0e), _mm256_madd_epi16(ao, b0o)));
                acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_add_epi32(
                    _mm256_madd_epi16(ae, b1e), _mm256_madd_epi16(ao, b1o)));
            }
        }
    }
#pragma GCC unroll 4
    for (int i = 0; i < mr; i++) {
        if (ncols == 16) {
            _mm256_storeu_si256((__m256i *)(c + i * ldc), acc[i][0]);
            _mm256_storeu_si256((__m256i *)(c + i * ldc + 8), acc[i][1]);
        } else {
            int32_t tmp[16];
            _mm256_storeu_si256((__m256i *)tmp, acc[i][0]);
            _mm256_storeu_si256((__m256i *)(tmp + 8), acc[i][1]);
            memcpy(c + i * ldc, tmp, (size_t)ncols * sizeof(int32_t));
        }
    }
}

AVX2_INLINE void gemm_avx2(const int s16, const uint8_t *a, const uint8_t *b,
                           const int32_t *init, int32_t *c, int64_t t, int64_t m,
                           int64_t n, int64_t kp) {
    const int64_t esize = s16 ? 2 : 1;
    const int64_t lda = kp * esize;
    const int64_t bstride = kp * esize * 16;
    const int64_t steps = lda / 4;
    const int64_t nblocks = (n + 15) / 16;
    for (int64_t ti = 0; ti < t; ti++) {
        const uint8_t *at = a + ti * m * lda;
        for (int64_t j = 0; j < nblocks; j++) {
            int64_t n0 = j * 16;
            int64_t ncols = n - n0 < 16 ? n - n0 : 16;
            int32_t iv[16] = {0};
            memcpy(iv, init + ti * n + n0, (size_t)ncols * sizeof(int32_t));
            const uint8_t *bj = b + (ti * nblocks + j) * bstride;
            int32_t *cj = c + ti * m * n + n0;
            int64_t i0 = 0;
            for (; i0 + 4 <= m; i0 += 4)
                ukr_avx2(4, s16, at + i0 * lda, lda, bj, steps, iv, cj + i0 * n, n, ncols);
            switch (m - i0) {
            case 3: ukr_avx2(3, s16, at + i0 * lda, lda, bj, steps, iv, cj + i0 * n, n, ncols); break;
            case 2: ukr_avx2(2, s16, at + i0 * lda, lda, bj, steps, iv, cj + i0 * n, n, ncols); break;
            case 1: ukr_avx2(1, s16, at + i0 * lda, lda, bj, steps, iv, cj + i0 * n, n, ncols); break;
            }
        }
    }
}

static AVX2 void gemm_u8s8_avx2(GEMM_ARGS) { gemm_avx2(0, a, b, init, c, t, m, n, kp); }
static AVX2 void gemm_s16s16_avx2(GEMM_ARGS) { gemm_avx2(1, a, b, init, c, t, m, n, kp); }

#endif /* REPRO_X86 */

/* -- the GEMMs on the team: T planes per unit, or GEMM_ROWS rows of the
 * one plane when T = 1 (int8_direct). */
struct gemm_args {
    gemm_fn body;
    int64_t esize;
    const uint8_t *a, *b;
    const int32_t *init;
    int32_t *c;
    int64_t t, m, n, kp;
};

static void gemm_chunk(const void *p, int64_t lo, int64_t hi) {
    const struct gemm_args *g = p;
    const int64_t lda = g->kp * g->esize;
    if (g->t > 1) {
        const int64_t bplane = (g->n + LANES - 1) / LANES * LANES * lda;
        g->body(g->a + lo * g->m * lda, g->b + lo * bplane, g->init + lo * g->n,
                g->c + lo * g->m * g->n, hi - lo, g->m, g->n, g->kp);
    } else {
        const int64_t r0 = lo * GEMM_ROWS, r1 = hi * GEMM_ROWS < g->m ? hi * GEMM_ROWS : g->m;
        g->body(g->a + r0 * lda, g->b, g->init, g->c + r0 * g->n, 1, r1 - r0, g->n, g->kp);
    }
}

static void gemm_split(gemm_fn body, int64_t esize, const void *a, const void *b,
                       const int32_t *init, int32_t *c, int64_t t, int64_t m, int64_t n,
                       int64_t kp) {
    const struct gemm_args g = {body, esize, a, b, init, c, t, m, n, kp};
    const int64_t units = t > 1 ? t : (m + GEMM_ROWS - 1) / GEMM_ROWS;
    /* ~200 u8 x s8 MACs (100 s16) and 16 output bytes per ns */
    const int64_t np16 = (n + LANES - 1) / LANES * LANES;
    const int64_t work = t * m * (np16 * kp * esize + 48 * n) / 192;
    team_run(gemm_chunk, &g, units, work);
}

#define GEMM_EXPORT(NAME, TA, TB, ESIZE)                                                  \
    void repro_gemm_##NAME(const TA *a, const TB *b, const int32_t *init, int32_t *c,     \
                           int64_t t, int64_t m, int64_t n, int64_t kp) {                 \
        gemm_split(gemm_##NAME, ESIZE, a, b, init, c, t, m, n, kp);                       \
    }
GEMM_EXPORT(u8s8_c, uint8_t, int8_t, 1)
GEMM_EXPORT(s16s16_c, int16_t, int16_t, 2)
#ifdef REPRO_X86
GEMM_EXPORT(u8s8_avx512_vnni, uint8_t, int8_t, 1)
GEMM_EXPORT(s16s16_avx512_vnni, int16_t, int16_t, 2)
GEMM_EXPORT(u8s8_avx2, uint8_t, int8_t, 1)
GEMM_EXPORT(s16s16_avx2, int16_t, int16_t, 2)
#endif

/* Comma-separated variants this CPU runs, best first. */
const char *repro_native_variants(void) {
#ifdef REPRO_X86
    __builtin_cpu_init();
    int avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    if (avx2 && __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vnni"))
        return "avx512_vnni,avx2,c";
    if (avx2)
        return "avx2,c";
#endif
    return "c";
}

/* -- the direct algorithm's u8 operand ----------------------------------- */

/* clip(rint(x * scale), lo, hi) + 128 of one float64 value, counting
 * NaN (whose byte is 128).  Bit for bit _round_clip: lo and hi are
 * integers, so clipping before rounding gives the same integer, and for
 * |v| <= 128 the sum (v + 1.5 * 2^52) - 1.5 * 2^52 is rint(v) in
 * round-to-nearest-even.  Built with -ffp-contract=off and without
 * fast-math, so x * scale is one IEEE multiply. */
static inline uint8_t code_u8(double x, double scale, double lo, double hi, int32_t *nans) {
    const double magic = 6755399441055744.0; /* 1.5 * 2^52 */
    double v = x * scale;
    int32_t nan = v != v;
    *nans += nan;
    v = nan ? 0.0 : v;
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    v = (v + magic) - magic;
    return (uint8_t)((int32_t)v + 128);
}

struct quantize_args {
    const double *x;
    int64_t ch, h, w, sb, sc, sh, sw;
    double scale, lo, hi;
    int64_t pad;
    uint8_t *out;
    int64_t *nans; /* summed over chunks */
};

/* Images [b0, b1) of repro_quantize_pad_u8. */
static CLONES void quantize_pad_chunk(const void *p, int64_t b0, int64_t b1) {
    const struct quantize_args *g = p;
    const double *x = g->x;
    const int64_t ch = g->ch, h = g->h, w = g->w, sb = g->sb, sc = g->sc, sh = g->sh, sw = g->sw;
    const double scale = g->scale, lo = g->lo, hi = g->hi;
    const int64_t pad = g->pad;
    uint8_t *out = g->out;
    const int64_t hp = h + 2 * pad, wp = w + 2 * pad, plane = hp * wp;
    int64_t nans = 0;
    for (int64_t bi = b0; bi < b1; bi++)
        for (int64_t ci = 0; ci < ch; ci++) {
            uint8_t *oc = out + (bi * ch + ci) * plane;
            memset(oc, 128, (size_t)(pad * wp));
            for (int64_t y = 0; y < h; y++) {
                uint8_t *orow = oc + (y + pad) * wp;
                memset(orow, 128, (size_t)pad);
                memset(orow + pad + w, 128, (size_t)pad);
            }
            memset(oc + (h + pad) * wp, 128, (size_t)(pad * wp));
        }
    for (int64_t bi = b0; bi < b1; bi++)
        for (int64_t ci = 0; ci < ch; ci++)
            for (int64_t y = 0; y < h; y++) {
                const double *xr = x + bi * sb + ci * sc + y * sh;
                uint8_t *orow = out + (bi * ch + ci) * plane + (y + pad) * wp + pad;
                int32_t n = 0;
                if (sw == 1)
                    for (int64_t xi = 0; xi < w; xi++)
                        orow[xi] = code_u8(xr[xi], scale, lo, hi, &n);
                else
                    for (int64_t xi = 0; xi < w; xi++)
                        orow[xi] = code_u8(xr[xi * sw], scale, lo, hi, &n);
                nans += n;
            }
    __atomic_fetch_add(g->nans, nans, __ATOMIC_RELAXED);
}

/* The codes of the strided (B, C, H, W) float64 input ``x`` (strides in
 * elements) written into the contiguous (B, C, H + 2 pad, W + 2 pad) u8
 * buffer ``out``, whose border holds 128, the code of 0.  Returns the
 * number of NaN inputs; +-inf saturate to lo / hi.  Split over images. */
int64_t repro_quantize_pad_u8(const double *x, int64_t b, int64_t ch, int64_t h, int64_t w,
                              int64_t sb, int64_t sc, int64_t sh, int64_t sw, double scale,
                              double lo, double hi, int64_t pad, uint8_t *out) {
    int64_t nans = 0;
    const struct quantize_args g = {x, ch, h, w, sb, sc, sh, sw, scale, lo, hi, pad, out, &nans};
    /* ~2 ns per input */
    team_run(quantize_pad_chunk, &g, b, 2 * b * ch * h * w);
    return nans;
}

/* im2col of the padded u8 input ``x`` (B, C, Hp, Wp) for an r x r
 * filter at ``stride``: row (b, oy, ox) of ``out`` (M, kp) holds
 * x[b, c, oy * stride + ky, ox * stride + kx] at column (c * r + ky) * r
 * + kx, and zeros in columns [C r r, kp).
 *
 * For r = 3 each 3-byte run moves as one 4-byte load and store, in
 * increasing column order: the extra byte lands where the next run (or,
 * after the row's last run, the zero tail or the next row) is written
 * later.  The last row copies exactly, so nothing is read or written
 * past either buffer -- or, on the team, past a chunk's own images. */
static void im2col_u8(const uint8_t *x, int64_t b, int64_t ch, int64_t hp, int64_t wp,
                      int64_t r, int64_t stride, uint8_t *out, int64_t kp) {
    const int64_t oh = (hp - r) / stride + 1, ow = (wp - r) / stride + 1;
    const int64_t k = ch * r * r, plane = hp * wp, m = b * oh * ow;
    for (int64_t bi = 0; bi < b; bi++)
        for (int64_t oy = 0; oy < oh; oy++)
            for (int64_t ox = 0; ox < ow; ox++) {
                int64_t i = (bi * oh + oy) * ow + ox;
                uint8_t *row = out + i * kp;
                const uint8_t *src = x + bi * ch * plane + oy * stride * wp + ox * stride;
                uint8_t *dst = row;
                if (r == 3 && i + 1 < m) {
                    for (int64_t ci = 0; ci < ch; ci++, src += plane)
                        for (int64_t ky = 0; ky < 3; ky++, dst += 3) {
                            uint32_t v;
                            memcpy(&v, src + ky * wp, 4);
                            memcpy(dst, &v, 4);
                        }
                } else {
                    for (int64_t ci = 0; ci < ch; ci++, src += plane)
                        for (int64_t ky = 0; ky < r; ky++, dst += r)
                            memcpy(dst, src + ky * wp, (size_t)r);
                }
                memset(row + k, 0, (size_t)(kp - k));
            }
}

struct im2col_args {
    const uint8_t *x;
    int64_t ch, hp, wp, r, stride;
    uint8_t *out;
    int64_t kp;
};

/* Images [b0, b1) as a call of their own. */
static void im2col_chunk(const void *p, int64_t b0, int64_t b1) {
    const struct im2col_args *g = p;
    const int64_t rows = ((g->hp - g->r) / g->stride + 1) * ((g->wp - g->r) / g->stride + 1);
    im2col_u8(g->x + b0 * g->ch * g->hp * g->wp, b1 - b0, g->ch, g->hp, g->wp, g->r,
              g->stride, g->out + b0 * rows * g->kp, g->kp);
}

void repro_im2col_u8(const uint8_t *x, int64_t b, int64_t ch, int64_t hp, int64_t wp,
                     int64_t r, int64_t stride, uint8_t *out, int64_t kp) {
    const struct im2col_args g = {x, ch, hp, wp, r, stride, out, kp};
    const int64_t rows = ((hp - r) / stride + 1) * ((wp - r) / stride + 1);
    /* ~8 ns per row and 8 bytes per ns */
    team_run(im2col_chunk, &g, b, b * rows * (kp / 8 + 8));
}

/* -- Winograd transform passes ------------------------------------------- *
 *
 *   winograd_in    gather + B^T d B (+ quantize) into the (T, N, C) operand
 *   winograd_out   (dequantize +) A^T Z A + assembly into (B, K, oh, ow)
 *
 * Arithmetic.  Both 2D transforms are mat . tile . mat^T, computed per
 * element as the two fma chains that OpenBLAS's dgemm computes for
 * repro.winograd.transform_2d (tile @ mat.T, then mat @ half):
 *
 *   h[i][p] = fma chain over j of mat[p][j] * d[i][j], from +0
 *   v[q][p] = fma chain over i of mat[q][i] * h[i][p], from +0
 *
 * in increasing j and i, zero coefficients included (skipping them is
 * exact only for finite data: 0 * inf is NaN).  A correctly rounded fma
 * gives the same bits in every variant.  That these are BLAS's sums is
 * a property of the host's BLAS (OpenBLAS's FMA dgemm kernels sum so);
 * tests/native/test_transforms.py checks it against transform_2d.
 * Dequantization is the reference's own (double) z / d and quantization
 * is code_u8, bit for bit _round_clip; -ffp-contract=off keeps every
 * other operation unfused.
 *
 * Layout.  The passes vectorize over channels: per (image, tile row,
 * block of L channels, run of tiles) they stage the rows the tiles read
 * (input) or write (output) channel-last in a block on the stack, lane l
 * holding channel c0 + l, so each tile element is one L-lane vector.
 * L is 8 for avx512_vnni and 4 for avx2 and c.  A pass keeps under
 * 64 KB of stack and touches only its arguments, so concurrent calls
 * are independent.  The tile transform and the u8 quantize differ
 * between variants (zmm, ymm or scalar); the transform has unrolled
 * copies for alpha = 4, 6 and 8 and a generic one for any other alpha.
 */

#include <math.h>

#define MAX_ALPHA 16
#define WT_LANES 8

enum { ISA_C = 0, ISA_AVX2 = 1, ISA_AVX512 = 2 };
enum { OPERAND_F64 = 0, OPERAND_U8 = 1, OPERAND_S16 = 2 };

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* v[(q * ldv + p) * L + l] = mat . d . mat^T for an (o, a) ``mat`` and
 * the a x a tile d[i][j] at d + (i * ldd + j) * L, through ``hb``.  Each
 * step updates all o chains of a row (stage 1) or column (stage 2), so o
 * independent chains are in flight; each still runs in increasing j or
 * i.  VEC, ZERO, SET1, LOAD, STORE and FMA name one variant's vector;
 * UNROLL is empty or a full-unroll pragma. */
#define TILE_2D_BODY(VEC, L, ZERO, SET1, LOAD, STORE, FMA, UNROLL) \
    VEC acc[MAX_ALPHA];                                                \
    UNROLL for (int64_t i = 0; i < a; i++) {                           \
        UNROLL for (int64_t p = 0; p < o; p++) acc[p] = ZERO;          \
        UNROLL for (int64_t j = 0; j < a; j++) {                       \
            VEC dj = LOAD(d + (i * ldd + j) * L);                      \
            UNROLL for (int64_t p = 0; p < o; p++)                     \
                acc[p] = FMA(SET1(mat[p * a + j]), dj, acc[p]);        \
        }                                                              \
        UNROLL for (int64_t p = 0; p < o; p++)                         \
            STORE(hb + (i * o + p) * L, acc[p]);                       \
    }                                                                  \
    UNROLL for (int64_t p = 0; p < o; p++) {                           \
        UNROLL for (int64_t q = 0; q < o; q++) acc[q] = ZERO;          \
        UNROLL for (int64_t i = 0; i < a; i++) {                       \
            VEC hi = LOAD(hb + (i * o + p) * L);                       \
            UNROLL for (int64_t q = 0; q < o; q++)                     \
                acc[q] = FMA(SET1(mat[q * a + i]), hi, acc[q]);        \
        }                                                              \
        UNROLL for (int64_t q = 0; q < o; q++)                         \
            STORE(v + (q * ldv + p) * L, acc[q]);                      \
    }
#define UNROLLED _Pragma("GCC unroll 16")
#define ROLLED
/* TILE_2D(OPS, UNROLL) with OPS a macro naming the first seven. */
#define TILE_2D(...) TILE_2D_BODY(__VA_ARGS__)
#define TILE_ARGS                                                                    \
    const int64_t o, const int64_t a, const double *mat, const double *d, int64_t ldd, \
        double *hb, double *v, int64_t ldv

/* The fast (o, a) shapes -- B^T (a, a) and A^T (a - 2, a) for a = 4, 6,
 * 8 -- run FAST with constant bounds; the others fall through. */
#define TILE_2D_FAST_CASES(FAST)                                          \
    switch (o * 32 + a) {                                                 \
    case 4 * 32 + 4: FAST(4, 4, mat, d, ldd, hb, v, ldv); return;         \
    case 6 * 32 + 6: FAST(6, 6, mat, d, ldd, hb, v, ldv); return;         \
    case 8 * 32 + 8: FAST(8, 8, mat, d, ldd, hb, v, ldv); return;         \
    case 2 * 32 + 4: FAST(2, 4, mat, d, ldd, hb, v, ldv); return;         \
    case 4 * 32 + 6: FAST(4, 6, mat, d, ldd, hb, v, ldv); return;         \
    case 6 * 32 + 8: FAST(6, 8, mat, d, ldd, hb, v, ldv); return;         \
    }

typedef struct { double x[4]; } lanes4;

static inline lanes4 set1_c(double c) { return (lanes4){{c, c, c, c}}; }
static inline lanes4 load_c(const double *p) { lanes4 r; memcpy(r.x, p, sizeof r.x); return r; }
static inline void store_c(double *p, lanes4 v) { memcpy(p, v.x, sizeof v.x); }
static inline lanes4 fma_c(lanes4 c, lanes4 d, lanes4 acc) {
    for (int l = 0; l < 4; l++)
        acc.x[l] = fma(c.x[l], d.x[l], acc.x[l]);
    return acc;
}

static void tile_c(TILE_ARGS) {
    TILE_2D_BODY(lanes4, 4, set1_c(0.0), set1_c, load_c, store_c, fma_c, ROLLED)
}

#ifdef REPRO_X86
#define FMA512 __attribute__((target("avx512f,fma")))
#define FMA512_INLINE static inline __attribute__((always_inline, target("avx512f,fma")))
#define FMA256 __attribute__((target("avx2,fma")))
#define FMA256_INLINE static inline __attribute__((always_inline, target("avx2,fma")))

#define AVX512_OPS __m512d, 8, _mm512_setzero_pd(), _mm512_set1_pd, _mm512_loadu_pd, \
                   _mm512_storeu_pd, _mm512_fmadd_pd
#define AVX2_OPS __m256d, 4, _mm256_setzero_pd(), _mm256_set1_pd, _mm256_loadu_pd, \
                 _mm256_storeu_pd, _mm256_fmadd_pd

FMA512_INLINE void tile_avx512_fast(TILE_ARGS) { TILE_2D(AVX512_OPS, UNROLLED) }
static FMA512 void tile_avx512(TILE_ARGS) {
    TILE_2D_FAST_CASES(tile_avx512_fast)
    TILE_2D(AVX512_OPS, ROLLED)
}

FMA256_INLINE void tile_avx2_fast(TILE_ARGS) { TILE_2D(AVX2_OPS, UNROLLED) }
static FMA256 void tile_avx2(TILE_ARGS) {
    TILE_2D_FAST_CASES(tile_avx2_fast)
    TILE_2D(AVX2_OPS, ROLLED)
}
#endif

/* clip(rint(v[e][l] * scale[e]), lo, hi) + 128 of the (elems, L) block
 * ``v`` into ``q``, bit for bit code_u8; returns the number of NaN codes
 * in the first ``cn`` lanes (the others are padding). */
static int32_t quant_u8_c(const double *v, int64_t elems, int64_t cn, const double *scale,
                          double lo, double hi, uint8_t *q) {
    int32_t nans = 0, pad = 0;
    for (int64_t e = 0; e < elems; e++)
        for (int64_t l = 0; l < 4; l++)
            q[4 * e + l] = code_u8(v[4 * e + l], scale[e], lo, hi, l < cn ? &nans : &pad);
    return nans;
}

#ifdef REPRO_X86
static FMA512 int32_t quant_u8_avx512(const double *v, int64_t elems, int64_t cn,
                                      const double *scale, double lo, double hi, uint8_t *q) {
    const __m512d vlo = _mm512_set1_pd(lo), vhi = _mm512_set1_pd(hi);
    const __m512d magic = _mm512_set1_pd(6755399441055744.0);
    const __m256i bias = _mm256_set1_epi32(128);
    const unsigned lanes = (1u << cn) - 1u;
    int32_t nans = 0;
    for (int64_t e = 0; e < elems; e++) {
        __m512d x = _mm512_mul_pd(_mm512_loadu_pd(v + 8 * e), _mm512_set1_pd(scale[e]));
        __mmask8 ok = _mm512_cmp_pd_mask(x, x, _CMP_ORD_Q);
        nans += __builtin_popcount(~(unsigned)ok & lanes);
        x = _mm512_min_pd(_mm512_max_pd(_mm512_maskz_mov_pd(ok, x), vlo), vhi);
        x = _mm512_sub_pd(_mm512_add_pd(x, magic), magic);
        __m256i i = _mm256_add_epi32(_mm512_cvtpd_epi32(x), bias);
        _mm_storel_epi64((__m128i *)(q + 8 * e), _mm512_cvtepi32_epi8(_mm512_castsi256_si512(i)));
    }
    return nans;
}

static FMA256 int32_t quant_u8_avx2(const double *v, int64_t elems, int64_t cn,
                                    const double *scale, double lo, double hi, uint8_t *q) {
    const __m256d vlo = _mm256_set1_pd(lo), vhi = _mm256_set1_pd(hi);
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m128i bias = _mm_set1_epi32(128);
    const __m128i low_bytes = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                            -1, -1, -1, -1);
    const unsigned lanes = (1u << cn) - 1u;
    int32_t nans = 0;
    for (int64_t e = 0; e < elems; e++) {
        __m256d x = _mm256_mul_pd(_mm256_loadu_pd(v + 4 * e), _mm256_set1_pd(scale[e]));
        __m256d ok = _mm256_cmp_pd(x, x, _CMP_ORD_Q);
        nans += __builtin_popcount(~(unsigned)_mm256_movemask_pd(ok) & lanes);
        x = _mm256_min_pd(_mm256_max_pd(_mm256_and_pd(x, ok), vlo), vhi);
        x = _mm256_sub_pd(_mm256_add_pd(x, magic), magic);
        __m128i i = _mm_add_epi32(_mm256_cvtpd_epi32(x), bias);
        int32_t bytes = _mm_cvtsi128_si32(_mm_shuffle_epi8(i, low_bytes));
        memcpy(q + 4 * e, &bytes, 4);
    }
    return nans;
}
#endif

ALWAYS_INLINE int32_t quant_u8(const int ISA, const double *v, int64_t elems, int64_t cn,
                               const double *scale, double lo, double hi, uint8_t *q) {
#ifdef REPRO_X86
    if (ISA == ISA_AVX512)
        return quant_u8_avx512(v, elems, cn, scale, lo, hi, q);
    if (ISA == ISA_AVX2)
        return quant_u8_avx2(v, elems, cn, scale, lo, hi, q);
#endif
    return quant_u8_c(v, elems, cn, scale, lo, hi, q);
}

ALWAYS_INLINE void tile_2d(const int ISA, TILE_ARGS) {
#ifdef REPRO_X86
    if (ISA == ISA_AVX512) {
        tile_avx512(o, a, mat, d, ldd, hb, v, ldv);
        return;
    }
    if (ISA == ISA_AVX2) {
        tile_avx2(o, a, mat, d, ldd, hb, v, ldv);
        return;
    }
#endif
    tile_c(o, a, mat, d, ldd, hb, v, ldv);
}

/* Rows y0 .. y0 + rows - 1, columns x0 .. x0 + width - 1 of channels
 * c0 .. c0 + L - 1 of one image, channel-last: stage[(i * width + xs) * L
 * + l] = x[c0 + l][y0 + i][x0 + xs], zero outside the image and in the
 * lanes past ``cn``. */
ALWAYS_INLINE void stage_rows(const int L, const double *x, int64_t sc, int64_t sh,
                              int64_t sw, int64_t h, int64_t w, int64_t y0, int64_t rows,
                              int64_t x0, int64_t width, int64_t cn, double *stage) {
    const int64_t lo = x0 < 0 ? -x0 : 0;
    const int64_t hi = w - x0 < width ? w - x0 : width;
    for (int64_t i = 0; i < rows; i++) {
        double *srow = stage + i * width * L;
        const int64_t y = y0 + i;
        if (y < 0 || y >= h || hi <= lo) {
            memset(srow, 0, (size_t)(width * L) * sizeof(double));
            continue;
        }
        memset(srow, 0, (size_t)(lo * L) * sizeof(double));
        memset(srow + hi * L, 0, (size_t)((width - hi) * L) * sizeof(double));
        for (int l = 0; l < L; l++) {
            double *dst = srow + l;
            if (l >= cn) {
                for (int64_t xs = lo; xs < hi; xs++)
                    dst[xs * L] = 0.0;
                continue;
            }
            const double *row = x + l * sc + y * sh;
            if (sw == 1)
                for (int64_t xs = lo; xs < hi; xs++)
                    dst[xs * L] = row[x0 + xs];
            else
                for (int64_t xs = lo; xs < hi; xs++)
                    dst[xs * L] = row[(x0 + xs) * sw];
        }
    }
}

/* One tile element's L lanes into the operand, the first ``cn`` kept:
 * float64 ``v``, the u8 codes ``q``, or ``v`` as s16. */
ALWAYS_INLINE void emit_lanes(const int L, const int MODE, const double *v, const uint8_t *q,
                              int64_t cn, void *out, int64_t off, int32_t *nans,
                              int32_t *over) {
    if (MODE == OPERAND_F64) {
        double *o = (double *)out + off;
        if (cn == L)
            memcpy(o, v, (size_t)L * sizeof(double));
        else
            for (int64_t l = 0; l < cn; l++)
                o[l] = v[l];
    } else if (MODE == OPERAND_U8) {
        uint8_t *o = (uint8_t *)out + off;
        if (cn == L)
            memcpy(o, q, (size_t)L);
        else
            for (int64_t l = 0; l < cn; l++)
                o[l] = q[l];
    } else {
        /* Exact integers: count NaN and |v| > 32767 in the live lanes. */
        int16_t q[WT_LANES];
        int32_t n = 0, big = 0;
        for (int l = 0; l < L; l++) {
            double x = v[l];
            int32_t nan = x != x, live = l < cn;
            n += nan & live;
            big += (__builtin_fabs(x) > 32767.0) & live;
            x = nan ? 0.0 : x;
            x = x < -32768.0 ? -32768.0 : x;
            x = x > 32767.0 ? 32767.0 : x;
            q[l] = (int16_t)(int32_t)x;
        }
        *nans += n;
        *over += big;
        int16_t *o = (int16_t *)out + off;
        if (cn == L)
            memcpy(o, q, (size_t)L * sizeof(int16_t));
        else
            for (int64_t l = 0; l < cn; l++)
                o[l] = q[l];
    }
}

/* Staged elements (rows x columns) per block: 32 KB at 8 lanes, so a
 * pass keeps under 64 KB of stack and its block stays in L1. */
#define STAGE_ELEMS 512

/* The arguments of one input pass, as the exported entry takes them. */
struct wt_in_args {
    const double *x;
    int64_t nb, nc, h, w, sb, sc, sh, sw, pad, m, a;
    const double *bt;
    int64_t mode;
    void *out;
    int64_t ldo;
    const double *scale;
    double lo, hi;
    int64_t *counts;
};

/* B^T d B of every tile of the (nb, nc, h, w) image ``x`` (strides in
 * elements) zero-padded by ``pad`` on every side and out to the tile
 * grid, as element e = q * a + p of row n = (b * th + ti) * tw + tj of
 * the (a * a, N, ldo) operand ``out``, channels [0, nc): float64, or the
 * u8 code clip(rint(v * scale[e]), lo, hi) + 128, or s16.  counts[0]
 * gets the NaN codes (u8, s16), counts[1] the |v| > 32767 (s16).  This
 * body runs the tile rows b * th + ti in [row0, row1). */
ALWAYS_INLINE void winograd_input_body(const int ISA, const int MODE,
                                       const struct wt_in_args *g, int64_t row0,
                                       int64_t row1) {
    const double *x = g->x;
    const int64_t nb = g->nb, nc = g->nc, h = g->h, w = g->w, sb = g->sb, sc = g->sc;
    const int64_t sh = g->sh, sw = g->sw, pad = g->pad, m = g->m, a = g->a, ldo = g->ldo;
    const double *bt = g->bt, *scale = g->scale;
    const double lo = g->lo, hi = g->hi;
    void *out = g->out;
    const int L = ISA == ISA_AVX512 ? 8 : 4;
    const int64_t r = a - m + 1;
    const int64_t th = (h + 2 * pad - r + m) / m, tw = (w + 2 * pad - r + m) / m;
    const int64_t nall = nb * th * tw, chunk = (STAGE_ELEMS / a - a) / m + 1;
    double stage[STAGE_ELEMS * WT_LANES];
    double hb[MAX_ALPHA * MAX_ALPHA * WT_LANES];
    double v[MAX_ALPHA * MAX_ALPHA * WT_LANES];
    uint8_t q[MAX_ALPHA * MAX_ALPHA * WT_LANES];
    int64_t nans = 0, over = 0;
    for (int64_t row = row0; row < row1; row++) {
        const int64_t bi = row / th, ti = row % th;
        for (int64_t c0 = 0; c0 < nc; c0 += L)
            for (int64_t tj0 = 0; tj0 < tw; tj0 += chunk) {
                const int64_t cn = nc - c0 < L ? nc - c0 : L;
                const int64_t nt = tw - tj0 < chunk ? tw - tj0 : chunk;
                const int64_t width = (nt - 1) * m + a;
                stage_rows(L, x + bi * sb + c0 * sc, sc, sh, sw, h, w, ti * m - pad, a,
                           tj0 * m - pad, width, cn, stage);
                int32_t n32 = 0, o32 = 0;
                for (int64_t tj = 0; tj < nt; tj++) {
                    const int64_t n = (bi * th + ti) * tw + tj0 + tj;
                    tile_2d(ISA, a, a, bt, stage + tj * m * L, width, hb, v, a);
                    if (MODE == OPERAND_U8)
                        n32 += quant_u8(ISA, v, a * a, cn, scale, lo, hi, q);
                    for (int64_t e = 0; e < a * a; e++)
                        emit_lanes(L, MODE, v + e * L, q + e * L, cn, out,
                                   (e * nall + n) * ldo + c0, &n32, &o32);
                }
                nans += n32;
                over += o32;
            }
    }
    __atomic_fetch_add(&g->counts[0], nans, __ATOMIC_RELAXED);
    __atomic_fetch_add(&g->counts[1], over, __ATOMIC_RELAXED);
}

struct wt_out_args {
    const void *z;
    int64_t s32;
    const double *denom;
    int64_t nb, k, oh, ow, m, a;
    const double *at;
    double *out;
};

/* A^T Z A of every tile of the (a * a, N, k) accumulators ``z`` -- s32
 * divided by the (a * a, k) ``denom``, or float64 -- assembled into the
 * C-contiguous (nb, k, oh, ow) ``out``, the grid's overhang cropped.
 * This body runs the tile rows b * th + ti in [row0, row1). */
ALWAYS_INLINE void winograd_output_body(const int ISA, const int S32,
                                        const struct wt_out_args *g, int64_t row0,
                                        int64_t row1) {
    const void *z = g->z;
    const double *denom = g->denom, *at = g->at;
    const int64_t nb = g->nb, k = g->k, oh = g->oh, ow = g->ow, m = g->m, a = g->a;
    double *out = g->out;
    const int L = ISA == ISA_AVX512 ? 8 : 4;
    const int64_t th = (oh + m - 1) / m, tw = (ow + m - 1) / m;
    const int64_t nall = nb * th * tw, chunk = STAGE_ELEMS / (m * m);
    double stage[STAGE_ELEMS * WT_LANES];
    double zt[MAX_ALPHA * MAX_ALPHA * WT_LANES];
    double hb[MAX_ALPHA * MAX_ALPHA * WT_LANES];
    for (int64_t row = row0; row < row1; row++) {
        const int64_t bi = row / th, ti = row % th;
        for (int64_t k0 = 0; k0 < k; k0 += L)
            for (int64_t tj0 = 0; tj0 < tw; tj0 += chunk) {
                const int64_t kn = k - k0 < L ? k - k0 : L;
                const int64_t nt = tw - tj0 < chunk ? tw - tj0 : chunk;
                const int64_t width = nt * m;
                for (int64_t tj = 0; tj < nt; tj++) {
                    const int64_t n = (bi * th + ti) * tw + tj0 + tj;
                    for (int64_t e = 0; e < a * a; e++) {
                        double *ze = zt + e * L;
                        const int64_t off = (e * nall + n) * k + k0;
                        if (S32) {
                            const int32_t *zp = (const int32_t *)z + off;
                            const double *dp = denom + e * k + k0;
                            if (kn == L)
                                for (int l = 0; l < L; l++)
                                    ze[l] = (double)zp[l] / dp[l];
                            else
                                for (int l = 0; l < L; l++)
                                    ze[l] = l < kn ? (double)zp[l] / dp[l] : 0.0;
                        } else {
                            const double *zp = (const double *)z + off;
                            if (kn == L)
                                for (int l = 0; l < L; l++)
                                    ze[l] = zp[l];
                            else
                                for (int l = 0; l < L; l++)
                                    ze[l] = l < kn ? zp[l] : 0.0;
                        }
                    }
                    tile_2d(ISA, m, a, at, zt, a, hb, stage + tj * m * L, width);
                }
                const int64_t rows = oh - ti * m < m ? oh - ti * m : m;
                const int64_t cols = ow - tj0 * m < width ? ow - tj0 * m : width;
                for (int64_t l = 0; l < kn; l++)
                    for (int64_t q = 0; q < rows; q++) {
                        double *dst =
                            out + ((bi * k + k0 + l) * oh + ti * m + q) * ow + tj0 * m;
                        const double *src = stage + q * width * L + l;
                        for (int64_t xo = 0; xo < cols; xo++)
                            dst[xo] = src[xo * L];
                    }
            }
    }
}

#define WT_INPUT_ARGS                                                                       \
    const double *x, int64_t nb, int64_t nc, int64_t h, int64_t w, int64_t sb, int64_t sc,  \
        int64_t sh, int64_t sw, int64_t pad, int64_t m, int64_t a, const double *bt,         \
        int64_t mode, void *out, int64_t ldo, const double *scale, double lo, double hi,     \
        int64_t *counts
#define WT_OUTPUT_ARGS                                                                      \
    const void *z, int64_t s32, const double *denom, int64_t nb, int64_t k, int64_t oh,     \
        int64_t ow, int64_t m, int64_t a, const double *at, double *out

/* Both passes on the team, split over (image, tile row).  Work: ~2 ns
 * (input) or 2.5 ns (output) per alpha^3 of each tile and block of 8
 * channels. */
static void wt_in_run(chunk_fn chunk, const struct wt_in_args *g) {
    const int64_t a = g->a, m = g->m, r = a - m + 1;
    const int64_t th = (g->h + 2 * g->pad - r + m) / m, tw = (g->w + 2 * g->pad - r + m) / m;
    team_run(chunk, g, g->nb * th, g->nb * th * tw * ((g->nc + 7) / 8) * a * a * a * 2);
}

static void wt_out_run(chunk_fn chunk, const struct wt_out_args *g) {
    const int64_t a = g->a, m = g->m, th = (g->oh + m - 1) / m, tw = (g->ow + m - 1) / m;
    team_run(chunk, g, g->nb * th, g->nb * th * tw * ((g->k + 7) / 8) * a * a * a * 5 / 2);
}

/* The exported pair of one variant. */
#define WT_DEFINE(ATTR, NAME, ISA)                                                     \
    static ATTR void wt_in_chunk_##NAME(const void *p, int64_t lo, int64_t hi) {      \
        const struct wt_in_args *g = p;                                                \
        if (g->mode == OPERAND_U8)                                                     \
            winograd_input_body(ISA, OPERAND_U8, g, lo, hi);                           \
        else if (g->mode == OPERAND_S16)                                               \
            winograd_input_body(ISA, OPERAND_S16, g, lo, hi);                          \
        else                                                                           \
            winograd_input_body(ISA, OPERAND_F64, g, lo, hi);                          \
    }                                                                                  \
    static ATTR void wt_out_chunk_##NAME(const void *p, int64_t lo, int64_t hi) {     \
        const struct wt_out_args *g = p;                                               \
        if (g->s32)                                                                    \
            winograd_output_body(ISA, 1, g, lo, hi);                                   \
        else                                                                           \
            winograd_output_body(ISA, 0, g, lo, hi);                                   \
    }                                                                                  \
    void repro_winograd_in_##NAME(WT_INPUT_ARGS) {                                     \
        const struct wt_in_args g = {x, nb, nc, h,   w,    sb,  sc,    sh, sw, pad,    \
                                     m, a,  bt, mode, out, ldo, scale, lo, hi, counts}; \
        wt_in_run(wt_in_chunk_##NAME, &g);                                             \
    }                                                                                  \
    void repro_winograd_out_##NAME(WT_OUTPUT_ARGS) {                                   \
        const struct wt_out_args g = {z, s32, denom, nb, k, oh, ow, m, a, at, out};    \
        wt_out_run(wt_out_chunk_##NAME, &g);                                           \
    }

WT_DEFINE(, c, ISA_C)
#ifdef REPRO_X86
WT_DEFINE(FMA512, avx512_vnni, ISA_AVX512)
WT_DEFINE(FMA256, avx2, ISA_AVX2)
#endif
