/* Integer kernels of the quantized convolution pipelines.
 *
 * The paper's speed comes from vpdpbusd: u8 x s8 -> s32, four products
 * per 32-bit lane (Sections 4.2.1 and 4.3).  This file holds the GEMMs
 * that feed it and the two passes that build the direct algorithm's u8
 * operand:
 *
 *   gemm_u8s8     C[t] = init[t] + A[t] . B[t]   u8 x s8 -> s32
 *   gemm_s16s16   C[t] = init[t] + A[t] . B[t]   s16 x s16 -> s32
 *   quantize_pad_u8   clip(rint(x * scale)) + 128 into a 128 border
 *   im2col_u8         (M, Kp) rows in (C, r, r) column order
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
 * Variants.  avx512_vnni (vpdpbusd / vpdpwssd), avx2 (vpmaddwd on
 * operands widened to s16 -- never the saturating vpmaddubsw) and
 * portable C.  Each is an exported symbol; repro_native_variants()
 * lists the ones this CPU runs, best first, and the loader binds the
 * first.  The file builds without -march flags: the SIMD variants carry
 * target attributes, and non-x86 builds compile only the portable C.
 */

#include <stdint.h>
#include <string.h>

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

void repro_gemm_u8s8_c(const uint8_t *a, const int8_t *b, const int32_t *init,
                       int32_t *c, int64_t t, int64_t m, int64_t n, int64_t kp) {
    int64_t nb = (n + LANES - 1) / LANES;
    for (int64_t ti = 0; ti < t; ti++)
        for (int64_t j = 0; j < nb; j++) {
            int64_t n0 = j * LANES;
            int64_t ncols = n - n0 < LANES ? n - n0 : LANES;
            block_u8s8_c(a + ti * m * kp, kp, m, b + (ti * nb + j) * kp * LANES, kp,
                         init + ti * n + n0, c + ti * m * n + n0, n, ncols);
        }
}

void repro_gemm_s16s16_c(const int16_t *a, const int16_t *b, const int32_t *init,
                         int32_t *c, int64_t t, int64_t m, int64_t n, int64_t kp) {
    int64_t nb = (n + LANES - 1) / LANES;
    for (int64_t ti = 0; ti < t; ti++)
        for (int64_t j = 0; j < nb; j++) {
            int64_t n0 = j * LANES;
            int64_t ncols = n - n0 < LANES ? n - n0 : LANES;
            block_s16s16_c(a + ti * m * kp, kp, m, b + (ti * nb + j) * kp * LANES, kp,
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

VNNI void repro_gemm_u8s8_avx512_vnni(const uint8_t *a, const int8_t *b, const int32_t *init,
                                      int32_t *c, int64_t t, int64_t m, int64_t n,
                                      int64_t kp) {
    gemm_vnni(0, a, (const uint8_t *)b, init, c, t, m, n, kp);
}

VNNI void repro_gemm_s16s16_avx512_vnni(const int16_t *a, const int16_t *b,
                                        const int32_t *init, int32_t *c, int64_t t,
                                        int64_t m, int64_t n, int64_t kp) {
    gemm_vnni(1, (const uint8_t *)a, (const uint8_t *)b, init, c, t, m, n, kp);
}

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

AVX2 void repro_gemm_u8s8_avx2(const uint8_t *a, const int8_t *b, const int32_t *init,
                               int32_t *c, int64_t t, int64_t m, int64_t n, int64_t kp) {
    gemm_avx2(0, a, (const uint8_t *)b, init, c, t, m, n, kp);
}

AVX2 void repro_gemm_s16s16_avx2(const int16_t *a, const int16_t *b, const int32_t *init,
                                 int32_t *c, int64_t t, int64_t m, int64_t n, int64_t kp) {
    gemm_avx2(1, (const uint8_t *)a, (const uint8_t *)b, init, c, t, m, n, kp);
}

#endif /* REPRO_X86 */

/* Comma-separated variants this CPU runs, best first. */
const char *repro_native_variants(void) {
#ifdef REPRO_X86
    __builtin_cpu_init();
    int avx2 = __builtin_cpu_supports("avx2");
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

/* The codes of the strided (B, C, H, W) float64 input ``x`` (strides in
 * elements) written into the contiguous (B, C, H + 2 pad, W + 2 pad) u8
 * buffer ``out``, whose border holds 128, the code of 0.  Returns the
 * number of NaN inputs; +-inf saturate to lo / hi. */
CLONES int64_t repro_quantize_pad_u8(const double *x, int64_t b, int64_t ch, int64_t h, int64_t w,
                              int64_t sb, int64_t sc, int64_t sh, int64_t sw,
                              double scale, double lo, double hi, int64_t pad,
                              uint8_t *out) {
    const int64_t hp = h + 2 * pad, wp = w + 2 * pad, plane = hp * wp;
    int64_t nans = 0;
    for (int64_t bi = 0; bi < b; bi++)
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
    for (int64_t bi = 0; bi < b; bi++)
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
 * past either buffer. */
void repro_im2col_u8(const uint8_t *x, int64_t b, int64_t ch, int64_t hp, int64_t wp,
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
